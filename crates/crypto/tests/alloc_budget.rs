//! Allocation budget of the RSA hot path: what one `sign` and one `verify`
//! take from the heap.
//!
//! The exponentiations run on stack arrays from the conversion into
//! Montgomery form to the conversion back, so what is left is the handful of
//! `BigUint`s and byte strings the two functions hand around.  A long
//! division, a heap-vector ladder or a per-operation scratch buffer creeping
//! back in shows up here as a count — which, unlike a timing, repeats exactly
//! on a shared host.  This file holds a single test on purpose: the counting
//! allocator is process-wide, so a sibling test running in parallel would
//! pollute the count.

use pasn_crypto::rsa::RsaKeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<O>(f: impl FnOnce() -> O) -> (O, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn sign_and_verify_stay_within_their_allocation_budgets() {
    let mut rng = StdRng::seed_from_u64(1234);
    let kp = RsaKeyPair::generate(512, &mut rng).unwrap();
    let message = b"reachable(a,c) asserted by a";
    let (signature, sign) = allocations_of(|| kp.sign(message));
    let (accepted, verify) = allocations_of(|| kp.verify(message, &signature));
    assert!(accepted);
    // sign: the encoded message and its integer, one residue per CRT half,
    // five Garner temporaries and the signature bytes (48 before the
    // exponentiation moved onto the stack).  Debug builds re-derive the
    // signature through the full-width path as a fault check: one more.
    assert_eq!(sign, 10 + u64::from(cfg!(debug_assertions)));
    // verify: the signature's integer, the recovered value, the expected
    // encoding and the recovered value's bytes (15 before).
    assert_eq!(verify, 4);
}
