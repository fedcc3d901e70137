//! Runtime path propagates errors; only test context unwraps.

pub fn decode(buf: &[u8]) -> Result<u8, &'static str> {
    // Strings and comments mentioning .unwrap() must not trip the gate.
    let _doc = "never call .unwrap() here";
    buf.first().copied().ok_or("empty datagram")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(super::decode(&[7]).unwrap(), 7);
    }
}

#[cfg(all(test, feature = "extra"))]
mod gated_harness {
    // `cfg(all(test, …))` is test context, not just bare `cfg(test)`.
    pub fn helper() -> u8 {
        [1u8].first().copied().unwrap()
    }
}

mod test {
    // Un-attributed `mod test` is still test context.
    pub fn helper() -> u8 {
        [2u8].first().copied().unwrap()
    }
}

#[test]
fn test_attribute_alone_is_exempt() {
    assert_eq!(decode(&[9]).unwrap(), 9);
}
