//! Type-erased reusable working memory for compressors.
//!
//! The sweep scheduler drives *different* compressors from the same worker
//! thread. A [`ScratchArena`] holds one [`CodecWork`] they all share (the
//! codes container, code and escape vectors, one `f64` per cell) and, keyed
//! by [`TypeId`], one instance of each compressor's own scratch type (SZ's
//! block metadata, ZFP's bit writer; MGARD's is empty). A worker owns one
//! arena, so it holds what its largest call needs, not the sum over codecs.
//!
//! Ownership rule: the arena (and therefore the worker thread) owns the
//! memory; compressors only borrow it for the duration of one
//! [`Compressor::compress_view_with`](crate::Compressor::compress_view_with)
//! call and must leave their scratch reusable (cleared, not shrunk). The
//! shared buffers hold whatever the last codec left: size them before use.

use crate::codes::CodecWork;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// A heterogeneous bag of reusable scratch states, one per type, beside
/// the shared [`CodecWork`].
#[derive(Debug, Default)]
pub struct ScratchArena {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
    work: CodecWork,
}

impl ScratchArena {
    /// Create an empty arena; scratch states materialize on first use.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// The arena's instance of `T`, default-created on first request.
    pub fn get_or_default<T: Any + Send + Default>(&mut self) -> &mut T {
        self.get_with_work::<T>().0
    }

    /// [`ScratchArena::get_or_default`] and the shared working set at once.
    pub fn get_with_work<T: Any + Send + Default>(&mut self) -> (&mut T, &mut CodecWork) {
        let work = &mut self.work;
        let slot = self.slots.entry(TypeId::of::<T>()).or_insert_with(|| Box::<T>::default());
        (slot.downcast_mut::<T>().expect("slot is keyed by TypeId"), work)
    }

    /// Number of distinct scratch types materialized so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no scratch state has been materialized.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct SzLike {
        codes: Vec<u32>,
    }

    #[derive(Default)]
    struct ZfpLike {
        bits: Vec<u8>,
    }

    #[test]
    fn arena_hands_out_one_persistent_instance_per_type() {
        let mut arena = ScratchArena::new();
        assert!(arena.is_empty());
        arena.get_or_default::<SzLike>().codes.push(7);
        arena.get_or_default::<ZfpLike>().bits.push(1);
        // Same instance on the next request: state persists.
        assert_eq!(arena.get_or_default::<SzLike>().codes, vec![7]);
        assert_eq!(arena.get_or_default::<ZfpLike>().bits, vec![1]);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn arena_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScratchArena>();
    }
}
