//! One worker's scratch serves every codec: a [`ScratchArena`] and a
//! [`FrameScratch`] driven through all five codecs, in two interleaved
//! orders, over shapes that grow and shrink, must write every stream and
//! decode every field exactly as a fresh arena does — a buffer of the
//! shared working set holds whatever the last codec left in it, at
//! whatever size. And what the arena keeps once warm is one working set:
//! a bounded multiple of the largest field, not one set per codec.

// `GlobalAlloc` is an unsafe trait by definition; the implementation only
// forwards to `System` after adding the request to a const-initialized
// thread-local `Cell` (no allocation, no reentrancy).
#![allow(unsafe_code)]

#[path = "common/fields.rs"]
mod fields;

use fields::ripple;
use lcc::grid::Field2D;
use lcc::mgard::MgardCompressor;
use lcc::pressio::frame::{compress_framed_with, decompress_framed_with};
use lcc::pressio::{Compressor, ErrorBound, FrameScratch, ScratchArena};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use lcc_par::ThreadPoolConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated minus the bytes it has freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(bytes: isize) {
    LIVE.with(|live| live.set(live.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are the ones `System` needs; the counter update
// before it neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The bytes `value` holds on this thread: what dropping it frees.
fn retained<T>(value: T) -> usize {
    let before = LIVE.with(Cell::get);
    drop(value);
    (before - LIVE.with(Cell::get)) as usize
}

fn codecs() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzCompressor::default()),
        Box::new(ZfpCompressor::default()),
        Box::new(MgardCompressor::default()),
        Box::new(SzCompressor::rans8()),
        Box::new(MgardCompressor::rans8()),
    ]
}

/// Grows and shrinks in both directions: a square, an odd rectangle, a row,
/// a column and prime sides, and back to the square.
const SHAPES: [(usize, usize); 6] =
    [(256, 256), (61, 83), (1, 4099), (4099, 1), (127, 131), (256, 256)];
/// Two absolute bounds.
const BOUNDS: [f64; 2] = [1e-2, 1e-3];
/// Row blocks of a framed stream.
const BLOCKS: usize = 4;
/// Most bytes a warm arena may keep per byte of the largest field it has
/// coded at these bounds: one shared working set (cells, codes, payload,
/// coder tables, LZ77 chains) reads 5.9, and a second container — SZ
/// holding its own again — 7.5. Tables sized by the codes' value span, not
/// by the field, grow past any such multiple at tighter bounds.
const ARENA_PER_FIELD_BYTE: f64 = 6.5;
/// The same for the frame scratch, whose tiles are a quarter of the field
/// but whose fixed tables are not: 3.6, and 4.3 with SZ's own container.
const FRAMES_PER_FIELD_BYTE: f64 = 4.0;

fn bits(field: &Field2D) -> Vec<u64> {
    field.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One codec call on the shared scratches, checked against fresh ones.
fn check(
    codec: &dyn Compressor,
    field: &Field2D,
    eb: f64,
    framed: bool,
    arena: &mut ScratchArena,
    frames: &mut FrameScratch,
    out: &mut Field2D,
) {
    let (view, bound, one) =
        (field.view(), ErrorBound::Absolute(eb), ThreadPoolConfig::with_threads(1));
    let what = format!("{} {:?} eb={eb} framed={framed}", codec.name(), field.shape());
    let (fresh, shared, fresh_out) = if framed {
        let fresh =
            compress_framed_with(codec, &view, bound, BLOCKS, one, &mut FrameScratch::new());
        let fresh = fresh.unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut fresh_out = Field2D::zeros(1, 1);
        decompress_framed_with(codec, &fresh, one, &mut FrameScratch::new(), &mut fresh_out)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let shared = compress_framed_with(codec, &view, bound, BLOCKS, one, frames)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        decompress_framed_with(codec, &shared, one, frames, out)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        (fresh, shared, fresh_out)
    } else {
        let fresh = codec.compress_view(&view, bound).unwrap_or_else(|e| panic!("{what}: {e}"));
        let fresh_out = codec.decompress_field(&fresh).unwrap_or_else(|e| panic!("{what}: {e}"));
        let shared =
            codec.compress_view_with(&view, bound, arena).unwrap_or_else(|e| panic!("{what}: {e}"));
        codec.decompress_view_with(&shared, arena, out).unwrap_or_else(|e| panic!("{what}: {e}"));
        (fresh, shared, fresh_out)
    };
    assert!(shared == fresh, "{what}: the shared scratch changed the stream");
    assert_eq!(out.shape(), field.shape(), "{what}");
    assert!(bits(out) == bits(&fresh_out), "{what}: the shared scratch changed the decode");
    assert!(field.max_abs_diff(out) <= eb, "{what}: bound violated");
}

/// Both orders over every shape at `bounds`: order one goes shape by shape,
/// the codecs in turn within each shape and bound, a single stream and then
/// a frame; order two codec by codec in reverse, the shapes backwards,
/// framing alternating, so each codec finds buffers another codec sized.
fn drive(bounds: &[f64], arena: &mut ScratchArena, frames: &mut FrameScratch) {
    let codecs = codecs();
    let fields: Vec<Field2D> = SHAPES.iter().map(|&(ny, nx)| ripple(ny, nx)).collect();
    let mut out = Field2D::zeros(1, 1);
    for field in &fields {
        for &eb in bounds {
            for codec in &codecs {
                for framed in [false, true] {
                    check(codec.as_ref(), field, eb, framed, arena, frames, &mut out);
                }
            }
        }
    }
    for (k, codec) in codecs.iter().rev().enumerate() {
        for (s, field) in fields.iter().rev().enumerate() {
            for &eb in bounds {
                let framed = (k + s) % 2 == 1;
                check(codec.as_ref(), field, eb, framed, arena, frames, &mut out);
            }
        }
    }
}

#[test]
fn one_arena_serves_every_codec_and_keeps_one_working_set() {
    let (mut arena, mut frames) = (ScratchArena::new(), FrameScratch::new());
    drive(&BOUNDS, &mut arena, &mut frames);

    let field_bytes = SHAPES.iter().map(|&(ny, nx)| ny * nx * 8).max().expect("shapes") as f64;
    let kept = [
        ("arena", retained(arena), ARENA_PER_FIELD_BYTE),
        ("frame scratch", retained(frames), FRAMES_PER_FIELD_BYTE),
    ];
    for (what, bytes, most) in kept {
        let per_field_byte = bytes as f64 / field_bytes;
        assert!(
            per_field_byte <= most,
            "the warm {what} keeps {bytes} B, {per_field_byte:.2} per byte of the largest field"
        );
    }
}

#[test]
fn codes_that_overflow_the_rans_table_share_the_arena_too() {
    // At 1e-6 MGARD's codes overflow the 12-bit rANS table, so its rANS
    // streams carry Huffman codes through the scratch the rANS coder embeds.
    drive(&[1e-6], &mut ScratchArena::new(), &mut FrameScratch::new());
}
