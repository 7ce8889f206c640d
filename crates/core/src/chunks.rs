//! The ordered chunk map: post-crawl work on every core.
//!
//! Everything after the crawl is per walk until its last tallies: a
//! walk's extraction and classification groups (keyed by walk), its
//! report scans and its `/walks/{id}` body. [`Chunks::map`] splits a
//! slice into at most one contiguous chunk per core, runs the first on
//! the calling thread and the rest on scoped threads, and returns the
//! results in chunk order, so a caller that concatenates them gets the
//! sequential result. On one core, or for an input too small to split,
//! no thread is spawned at all. Spans opened inside a chunk nest under
//! the caller's open span (cc-telemetry's [`SpanParent`]).

use std::num::NonZeroUsize;
use std::thread;

use cc_telemetry::SpanParent;

/// At most how many chunks a [`Chunks::map`] splits its input into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunks(usize);

impl Chunks {
    /// One chunk: the whole input on the calling thread.
    pub const ONE: Chunks = Chunks(1);

    /// One chunk per core (`available_parallelism`, 1 when unknown).
    pub fn available() -> Chunks {
        Chunks(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// At most `n` chunks (at least one). The chunk-count identity tests
    /// pass explicit counts; the program uses [`Chunks::available`].
    pub fn at_most(n: usize) -> Chunks {
        Chunks(n.max(1))
    }

    /// `f` over at most this many contiguous chunks of `items`, in chunk
    /// order. An empty input is one empty chunk.
    pub fn map<T: Sync, R: Send>(self, items: &[T], f: impl Fn(&[T]) -> R + Sync) -> Vec<R> {
        let n = self.0.min(items.len());
        if n <= 1 {
            return vec![f(items)];
        }
        let mut parts = items.chunks(items.len().div_ceil(n));
        let first = parts.next().unwrap_or_default();
        let parent = SpanParent::current();
        let (f, parent) = (&f, &parent);
        thread::scope(|scope| {
            let rest: Vec<_> = parts
                .map(|part| {
                    scope.spawn(move || {
                        let _under = parent.adopt();
                        f(part)
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(rest.len() + 1);
            out.push(f(first));
            out.extend(
                rest.into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            );
            out
        })
    }

    /// `here` on the calling thread and `beside` next to it: on a scoped
    /// thread when there is more than one chunk, after `here` otherwise.
    pub fn join<A, B: Send>(
        self,
        here: impl FnOnce() -> A,
        beside: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        if self.0 <= 1 {
            let a = here();
            return (a, beside());
        }
        let parent = SpanParent::current();
        thread::scope(|scope| {
            let b = scope.spawn(|| {
                let _under = parent.adopt();
                beside()
            });
            let a = here();
            (a, b.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_come_back_contiguous_and_in_order() {
        let items: Vec<u32> = (0..10).collect();
        for n in 1..=12 {
            let parts = Chunks::at_most(n).map(&items, |part| part.to_vec());
            assert!(parts.len() <= n.max(1), "{n} chunks: {parts:?}");
            assert_eq!(parts.concat(), items, "{n} chunks");
            assert!(parts.iter().all(|p| !p.is_empty()), "{n} chunks: {parts:?}");
        }
        assert_eq!(Chunks::at_most(4).map(&[] as &[u32], |p| p.len()), vec![0]);
        assert_eq!(Chunks::at_most(0), Chunks::ONE);
    }

    #[test]
    fn one_chunk_and_one_item_stay_on_the_calling_thread() {
        let me = thread::current().id();
        let here = |_: &[u32]| thread::current().id();
        assert_eq!(Chunks::ONE.map(&[1, 2, 3], here), vec![me]);
        assert_eq!(Chunks::at_most(4).map(&[1], here), vec![me]);
        let (a, b) = Chunks::ONE.join(|| thread::current().id(), || thread::current().id());
        assert_eq!((a, b), (me, me));
        let ids = Chunks::at_most(3).map(&[1, 2, 3], here);
        assert_eq!(ids[0], me, "the first chunk runs on the caller");
        assert!(ids[1..].iter().all(|id| *id != me));
    }

    #[test]
    fn a_chunk_threads_spans_roll_up_under_the_callers_path() {
        let session = cc_telemetry::Session::start();
        {
            let _caller = cc_telemetry::span("chunks.test.caller");
            Chunks::at_most(3).map(&[1, 2, 3], |_| {
                let _chunk = cc_telemetry::span("chunks.test.chunk");
            });
            Chunks::at_most(2).join(
                || (),
                || {
                    let _beside = cc_telemetry::span("chunks.test.beside");
                },
            );
        }
        let report = session.report();
        let span = |path: &str| report.timing.spans.iter().find(|s| s.path == path);
        let chunk = span("chunks.test.caller/chunks.test.chunk").expect("chunk spans nest");
        assert_eq!(chunk.count, 3);
        assert!(span("chunks.test.chunk").is_none());
        assert!(span("chunks.test.caller/chunks.test.beside").is_some());
        assert!(span("chunks.test.beside").is_none());
    }

    #[test]
    #[should_panic(expected = "chunk 2 fails")]
    fn a_panicking_chunk_panics_the_caller() {
        Chunks::at_most(3).map(&[1, 2, 3], |part| {
            assert!(part != [2], "chunk 2 fails");
        });
    }
}
