//! The L1 lookup path allocates nothing, from a thread's first lookup
//! on: a lookup hashes the text as sent and compares it with the entry
//! under that hash (`memo.rs` module docs). A hit, a respelling, an
//! absent text and two malformed texts (unterminated comment,
//! unterminated string) are each counted by a global allocator that
//! keeps one count per thread, so tests running in parallel do not see
//! each other's allocations.

use queryvis_service::{Fingerprint, L1Memo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation on the calling
/// thread. `GlobalAlloc`'s provided `alloc_zeroed` and `realloc` call
/// `alloc`, so they are counted too.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments;
// the count is a `const` thread-local `Cell` without a destructor, so it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MEMOIZED: &str = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                        (SELECT * FROM Serves S WHERE S.bar = F.bar)";

#[test]
fn lookups_allocate_nothing_once_the_thread_saw_its_longest_text() {
    let memo = L1Memo::new(4 * 4096, 16);
    memo.insert(MEMOIZED, Fingerprint(7), 11);
    let cases = [
        ("hit", MEMOIZED, Some((Fingerprint(7), 11))),
        (
            "variant",
            "select F.person  from Frequents F -- who\n where not exists \
             (/* c */ select * from Serves S where S.bar = F.bar);",
            None,
        ),
        ("absent", "SELECT S.bar FROM Serves S", None),
        (
            "unterminated comment",
            "SELECT S.bar FROM Serves S /* oops",
            None,
        ),
        (
            "unterminated string",
            "SELECT S.bar FROM Serves S WHERE S.beer = 'oops",
            None,
        ),
    ];
    // No warm-up: the thread's first lookup is counted too.
    for (what, sql, expected) in cases {
        let before = ALLOCATIONS.with(Cell::get);
        let got = memo.lookup(sql);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(got, expected, "{what}");
        assert_eq!(allocations, 0, "{what}: {allocations} allocations");
    }
}
