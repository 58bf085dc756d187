//! Fibers: a set of contexts that take turns, one running at a time.
//! Context 0 is the thread that runs the set (`World::run`'s caller); a
//! spawned fiber starts its body on its first switch, and switches to
//! context 0 for good when the body returns. A panic that escapes a body
//! aborts. On x86_64 Linux a fiber is a stack on the owning thread and a
//! switch swaps registers; elsewhere (and in tests) it is a parked thread.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use stacks::Fibers;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use threads::Fibers;

use std::panic::{catch_unwind, AssertUnwindSafe};

type Body = Box<dyn FnOnce() + Send>;

/// Run a fiber's body; a panic that escapes it aborts.
fn run_body(body: Body) {
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        std::process::abort();
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod stacks {
    use super::{run_body, Body};
    use std::arch::naked_asm;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// What `std` gives a spawned thread by default.
    const STACK_BYTES: usize = 2 << 20;
    const PAGE: usize = 4096;
    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 0x3;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK`.
    const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x20000;

    extern "C" {
        fn mmap(addr: usize, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    #[derive(Default)]
    struct Context {
        /// Where it is suspended; 0 while it runs, before its spawn and once done.
        sp: Cell<usize>,
        /// The body, until the fiber starts.
        body: Cell<Option<Body>>,
        /// The base of its stack mapping (0 for context 0).
        stack: Cell<usize>,
    }

    /// A set of contexts that take turns on the owning OS thread.
    pub(crate) struct Fibers {
        /// Context 0, then one per spawn; started fibers point into it.
        contexts: Box<[Context]>,
        current: Cell<usize>,
        /// The OS thread that runs the set, as `check_owner` names it.
        owner: AtomicUsize,
    }

    // SAFETY: only the owning thread (see `check_owner`) touches the
    // cells, one context at a time; bodies are `Send`.
    unsafe impl Send for Fibers {}
    // SAFETY: as for `Send`.
    unsafe impl Sync for Fibers {}

    impl Fibers {
        /// A set with room for `n` fibers beside context 0, the caller.
        pub(crate) fn new(n: usize) -> Fibers {
            let contexts = (0..=n).map(|_| Context::default()).collect();
            Fibers { contexts, current: Cell::new(0), owner: AtomicUsize::new(0) }
        }

        /// Panic unless the calling OS thread runs the set (the first caller).
        fn check_owner(&self) {
            thread_local!(static ANCHOR: u8 = const { 0 });
            let me = ANCHOR.with(|anchor| anchor as *const u8 as usize);
            // Relaxed: the value publishes nothing; only its identity matters.
            if self.owner.load(Relaxed) != me {
                let first = self.owner.compare_exchange(0, me, Relaxed, Relaxed);
                assert!(first.is_ok(), "a fiber set used off the thread that runs it");
            }
        }

        /// Add a fiber that runs `body` from its first switch; returns its
        /// context, `1` for the first.
        pub(crate) fn spawn(&self, body: impl FnOnce() + Send + 'static) -> usize {
            self.check_owner();
            let id = (1..self.contexts.len()).find(|&i| self.contexts[i].stack.get() == 0);
            let id = id.expect("the set is full");
            let context = &self.contexts[id];
            // SAFETY: a fresh anonymous mapping aliases nothing.
            let stack = unsafe {
                let base = mmap(0, STACK_BYTES, PROT_READ_WRITE, MAP_FLAGS, -1, 0);
                assert!(base as isize != -1, "cannot map a fiber stack");
                assert_eq!(mprotect(base, PAGE, PROT_NONE), 0, "cannot guard a fiber stack");
                base as usize
            };
            // What the first switch pops: default MXCSR and x87 control word;
            // r15, r14; r13 = `id` and r12 = the contexts, for `trampoline`;
            // rbx; rbp = 0, ending the frame chain; the address `switch`
            // returns to; and the trampoline's own return address, zero.
            let trampoline = trampoline as *const () as usize;
            let contexts = self.contexts.as_ptr() as usize;
            let frame = [0x1F80 | 0x037F << 32, 0, 0, id, contexts, 0, 0, trampoline, 0, 0];
            let sp = stack + STACK_BYTES - std::mem::size_of_val(&frame);
            // SAFETY: the frame fits at the top of the new stack; `sp` is aligned.
            unsafe { (sp as *mut [usize; 10]).write(frame) };
            context.sp.set(sp);
            context.stack.set(stack);
            context.body.set(Some(Box::new(body)));
            id
        }

        /// Suspend the running context and resume `to`. Returns when some
        /// context switches back to this one.
        pub(crate) fn switch_to(&self, to: usize) {
            self.check_owner();
            if to == self.current.get() {
                return;
            }
            let sp = self.contexts[to].sp.take();
            assert_ne!(sp, 0, "switch to context {to}, which is not suspended");
            let me = self.current.replace(to);
            // SAFETY: `to` was suspended at `sp`, on a stack that stays mapped
            // until it finishes; `me` runs, so its slot is free.
            unsafe { switch(self.contexts[me].sp.as_ptr(), sp) };
            self.current.set(me);
        }
    }

    impl Drop for Fibers {
        fn drop(&mut self) {
            // A started fiber that never finished keeps its stack: its frames
            // never unwound, so what they own must stay valid.
            let done = |c: &Context| c.sp.get() == 0 || c.body.take().is_some();
            for context in self.contexts.iter().filter(|c| c.stack.get() != 0 && done(c)) {
                // SAFETY: the mapping is this context's; nothing runs on it.
                unsafe { munmap(context.stack.get() as *mut u8, STACK_BYTES) };
            }
        }
    }

    /// Push the callee-saved registers, MXCSR and the x87 control word, and
    /// save the stack pointer in `*from`; then load `to` and pop.
    ///
    /// # Safety
    ///
    /// `from` must be valid for a write, and `to` a stack pointer saved by
    /// `switch` (or built by `spawn`) on a stack that is still mapped.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(from: *mut usize, to: usize) {
        naked_asm!(
            "push rbp; push rbx; push r12; push r13; push r14; push r15",
            "sub rsp, 8; stmxcsr [rsp]; fnstcw [rsp + 4]",
            "mov [rdi], rsp; mov rsp, rsi",
            "ldmxcsr [rsp]; fldcw [rsp + 4]; add rsp, 8",
            "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp; ret",
        )
    }

    /// A new stack's first frame: its return address is zero and its CFI
    /// leaves `rip` undefined, so unwinders and backtraces stop here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() -> ! {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12; mov rsi, r13; call {entry}; ud2",
            ".cfi_endproc",
            entry = sym entry,
        )
    }

    /// Run context `id`'s body, then switch to context 0 for good.
    extern "C" fn entry(contexts: *const Context, id: usize) -> ! {
        // SAFETY: `spawn` passed the set's contexts, which outlive its fibers.
        let (zero, me) = unsafe { (&*contexts, &*contexts.add(id)) };
        run_body(me.body.take().expect("a fiber starts once"));
        // SAFETY: context 0 switched here, so it is suspended at its `sp`.
        unsafe { switch(&mut 0, zero.sp.take()) };
        unreachable!("a finished fiber was resumed");
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod threads {
    use super::run_body;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    /// The running context, and the signal that it changed.
    type Turn = (Mutex<usize>, Condvar);

    /// Make `to` the running context, then park until it is `me`'s turn.
    fn pass(turn: &Turn, to: Option<usize>, me: Option<usize>) {
        let mut running = turn.0.lock().expect("nothing panics holding the turn");
        if let Some(to) = to {
            *running = to;
            turn.1.notify_all();
        }
        let parked = turn.1.wait_while(running, |r| me.is_some_and(|me| *r != me));
        drop(parked.expect("nothing panics holding the turn"));
    }

    /// Contexts that take turns, each fiber an OS thread: one that ends right
    /// after its final switch, and aborts on a panic, so it is not joined.
    pub(crate) struct Fibers {
        turn: Arc<Turn>,
        spawned: AtomicUsize,
    }

    // The calls of the other backend, `stacks`, documented there.
    impl Fibers {
        pub(crate) fn new(_n: usize) -> Fibers {
            Fibers { turn: Arc::new((Mutex::new(0), Condvar::new())), spawned: AtomicUsize::new(0) }
        }

        pub(crate) fn spawn(&self, body: impl FnOnce() + Send + 'static) -> usize {
            let id = self.spawned.fetch_add(1, Ordering::Relaxed) + 1;
            let turn = self.turn.clone();
            std::thread::spawn(move || {
                pass(&turn, None, Some(id));
                run_body(Box::new(body));
                pass(&turn, Some(0), None);
            });
            id
        }

        pub(crate) fn switch_to(&self, to: usize) {
            let me = *self.turn.0.lock().expect("nothing panics holding the turn");
            pass(&self.turn, Some(to), Some(me));
        }
    }
}

#[cfg(test)]
mod tests {
    /// The same tests for each backend.
    macro_rules! backend_tests {
        ($backend:ident) => {
            mod $backend {
                use super::super::$backend::Fibers;
                use std::sync::atomic::{AtomicUsize, Ordering};
                use std::sync::Arc;

                /// Context 0 and three fibers pass the turn round a ring:
                /// every switch lands where the ring says.
                #[test]
                fn a_ring_of_100k_switches_keeps_its_order() {
                    const ROUNDS: usize = 25_000;
                    let fibers = Arc::new(Fibers::new(3));
                    let turn = Arc::new(AtomicUsize::new(0));
                    for me in 1..=3 {
                        let (f, t) = (fibers.clone(), turn.clone());
                        let id = fibers.spawn(move || {
                            for _ in 0..ROUNDS {
                                assert_eq!(t.load(Ordering::SeqCst), me);
                                t.store((me + 1) % 4, Ordering::SeqCst);
                                f.switch_to((me + 1) % 4);
                            }
                        });
                        assert_eq!(id, me);
                    }
                    for _ in 0..ROUNDS {
                        assert_eq!(turn.load(Ordering::SeqCst), 0);
                        turn.store(1, Ordering::SeqCst);
                        fibers.switch_to(1);
                    }
                    // Each fiber leaves its loop and finishes.
                    for me in 1..=3 {
                        fibers.switch_to(me);
                    }
                    assert_eq!(Arc::strong_count(&fibers), 1, "every body was dropped");
                }

                /// Recurse `n` deep, each frame holding a live 1000-byte array.
                fn depth(n: u32) -> usize {
                    let mut frame = [n as u8; 1000];
                    std::hint::black_box(&mut frame);
                    let below = if n == 0 { 0 } else { depth(n - 1) };
                    frame[999] as usize + below
                }

                /// A fiber's stack holds about 1 MiB of frames.
                #[test]
                fn a_fiber_recurses_through_a_mebibyte_of_stack() {
                    let fibers = Fibers::new(1);
                    let sum = Arc::new(AtomicUsize::new(0));
                    let s = sum.clone();
                    fibers.spawn(move || s.store(depth(1000), Ordering::SeqCst));
                    fibers.switch_to(1);
                    assert_eq!(sum.load(Ordering::SeqCst), (1..=1000usize).map(|n| n % 256).sum());
                }
            }
        };
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    backend_tests!(stacks);
    backend_tests!(threads);
}
