//! SIMT instruction set and kernel IR for the RegLess reproduction.
//!
//! This crate defines the compiler- and simulator-facing representation of
//! GPU kernels: [`Reg`]isters, [`Opcode`]s, [`Instruction`]s, [`BasicBlock`]s
//! and validated [`Kernel`] control-flow graphs, plus the warp-wide value
//! type [`LaneVec`] used by the functional simulator and the RegLess
//! compressor.
//!
//! Kernels are most conveniently constructed with [`KernelBuilder`]:
//!
//! ```
//! use regless_isa::KernelBuilder;
//! let mut b = KernelBuilder::new("scale");
//! let i = b.thread_idx();
//! let v = b.ld_global(i);
//! let two = b.movi(2);
//! let scaled = b.imul(v, two);
//! b.st_global(scaled, i);
//! b.exit();
//! let kernel = b.finish()?;
//! assert_eq!(kernel.name(), "scale");
//! # Ok::<(), regless_isa::KernelError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
mod insn;
mod kernel;
mod kstats;
mod op;
mod reg;
pub mod text;
mod value;

pub use block::{BasicBlock, BlockId};
pub use builder::KernelBuilder;
pub use insn::{Instruction, MAX_SRCS};
pub use kernel::{InsnRef, Kernel, KernelError};
pub use kstats::KernelStats;
pub use op::{OpClass, Opcode, Special};
pub use reg::{LaneMask, Reg, WarpId, WARP_WIDTH};
pub use value::LaneVec;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lane_mask_split_is_partition(mask: u32, cond: u32) {
            let m = LaneMask(mask);
            let (t, nt) = m.split(cond);
            prop_assert_eq!(t.union(nt), m);
            prop_assert!(t.intersect(nt).is_empty());
            prop_assert_eq!(t.count() + nt.count(), m.count());
        }

        #[test]
        fn stride_is_affine(base: u32, step in 0u32..1024) {
            let v = LaneVec::stride(base, step);
            for l in 1..WARP_WIDTH {
                prop_assert_eq!(
                    v.lane(l).wrapping_sub(v.lane(l - 1)),
                    step
                );
            }
        }

        #[test]
        fn zip_map_add_commutes(a: u32, b: u32) {
            let va = LaneVec::splat(a);
            let vb = LaneVec::splat(b);
            prop_assert_eq!(
                va.zip_map(&vb, u32::wrapping_add),
                vb.zip_map(&va, u32::wrapping_add)
            );
        }

        /// The textual format round-trips arbitrary straight-line kernels.
        #[test]
        fn text_roundtrip(ops in proptest::collection::vec(0u8..8, 1..40)) {
            let mut b = KernelBuilder::new("arb");
            let mut live = vec![b.movi(1), b.thread_idx()];
            for (i, &k) in ops.iter().enumerate() {
                let a = live[i % live.len()];
                let c = live[(i * 3 + 1) % live.len()];
                let r = match k {
                    0 => b.iadd(a, c),
                    1 => b.imul(a, c),
                    2 => b.xor(a, c),
                    3 => b.sfu(a),
                    4 => b.ld_global(a),
                    5 => b.ffma(a, c, a),
                    6 => b.setlt(a, c),
                    _ => b.movi(i as u32),
                };
                live.push(r);
            }
            let out = *live.last().expect("nonempty");
            b.st_global(out, out);
            b.exit();
            let kernel = b.finish().expect("valid");
            let text = text::format_kernel(&kernel);
            let parsed = text::parse_kernel(&text).expect("parses");
            prop_assert_eq!(parsed, kernel);
        }

        #[test]
        fn nonzero_bits_counts(vals in proptest::collection::vec(0u32..4, WARP_WIDTH)) {
            let mut v = LaneVec::zero();
            for (i, &x) in vals.iter().enumerate() {
                v.set_lane(i, x);
            }
            let expected = vals.iter().filter(|&&x| x != 0).count() as u32;
            prop_assert_eq!(v.nonzero_bits().count_ones(), expected);
        }
    }
}
