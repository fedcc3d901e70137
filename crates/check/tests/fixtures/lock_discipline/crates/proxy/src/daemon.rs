//! Lock-discipline violations: guards live across blocking calls,
//! re-acquisition, and an acquisition-order inversion.

use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub struct Shared {
    pub a: Mutex<u32>,
    pub b: Mutex<u32>,
}

pub fn sleepy(s: &Shared) {
    let g = lock(&s.a);
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _ = *g;
}

pub fn sender(s: &Shared, tx: &std::sync::mpsc::Sender<u32>) {
    let g = lock(&s.a);
    drop_hint(0);
    let _ = tx.send(*g);
}

fn drop_hint(_: u32) {}

pub fn double(s: &Shared) {
    let first = lock(&s.a);
    let again = lock(&s.a);
    let _ = (*first, *again);
}

pub fn ab(s: &Shared) {
    let a = lock(&s.a);
    let b = lock(&s.b);
    let _ = (*a, *b);
}

pub fn ba(s: &Shared) {
    let b = lock(&s.b);
    let a = lock(&s.a);
    let _ = (*a, *b);
}

pub fn dropped(s: &Shared, tx: &std::sync::mpsc::Sender<u32>) {
    let g = lock(&s.a);
    let v = *g;
    drop(g);
    let _ = tx.send(v);
}

pub fn scoped(s: &Shared, tx: &std::sync::mpsc::Sender<u32>) {
    let v = {
        let g = lock(&s.a);
        *g
    };
    let _ = tx.send(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_hold_across_send() {
        let s = Shared {
            a: Mutex::new(1),
            b: Mutex::new(2),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let g = lock(&s.a);
        tx.send(*g).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
    }
}
