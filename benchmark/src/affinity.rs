//! Thread placement: each driven daemon and its driver share one core.
//!
//! A local hit is a ping-pong between a driver thread and the daemon's
//! connection thread. When the scheduler happens to put the two on
//! different cores, every request pays two cross-core wake-ups — on a
//! virtual machine each of those is an inter-processor interrupt and a
//! halt exit, and the very same binary then runs four to eight times
//! slower than when the pair shares a core. Which of the two placements
//! a run gets is luck, and it sticks for the whole run. The benchmark
//! takes the luck out: daemon `d` (all its threads, including the
//! connection threads it spawns later, since a new thread inherits its
//! creator's mask) and driver `d % 2` are confined to lane `d % 2`, one
//! of the first two cores the process may use.
//!
//! The mask is set through libc's `sched_setaffinity`, which `std`
//! already links on Linux; elsewhere placement is left to the scheduler.

/// Words in the kernel's `cpu_set_t` (1024 bits).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The cores the calling thread may run on, ascending (empty when the
/// platform does not say).
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confine the calling thread (and every thread it spawns from now on)
/// to `cpus`. Returns whether the kernel accepted the mask; an empty or
/// out-of-range list is refused without a call.
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpus.is_empty() || cpus.iter().any(|&cpu| cpu >= MASK_WORDS * 64) {
        return false;
    }
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed,
    // only read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Placement is not controlled on this platform.
#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

/// Placement is not controlled on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) -> bool {
    false
}

/// The two lanes: the first two allowed cores, or the same core twice
/// when there is only one. `None` when placement cannot be controlled.
pub fn lanes() -> Option<[usize; 2]> {
    let cpus = allowed();
    match cpus.as_slice() {
        [] => None,
        [only] => Some([*only, *only]),
        [a, b, ..] => Some([*a, *b]),
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_sees_its_mask_and_children_inherit_it() {
        let all = allowed();
        assert!(!all.is_empty());
        let first = all[0];
        std::thread::spawn(move || {
            assert!(pin(&[first]));
            assert_eq!(allowed(), vec![first]);
            let child = std::thread::spawn(allowed).join().unwrap();
            assert_eq!(child, vec![first], "spawned threads inherit the mask");
        })
        .join()
        .unwrap();
        assert_eq!(allowed(), all, "the pin was the spawned thread's alone");
        assert!(!pin(&[]));
    }
}
