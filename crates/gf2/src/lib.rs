//! GF(2) linear algebra for the fast cycle-space decoder (Section 3.1.3).
//!
//! The decoder of Lemma 3.5 asks whether some subset of the faulty edges'
//! cycle-space labels `φ(e)` XORs to zero while crossing the query's tree
//! paths an odd number of times. Those subsets form the null space of the
//! `φ` columns, so the decoder needs its generators. This crate provides:
//!
//! * [`BitVec`] / [`BitMatrix`]: packed bit vectors and row banks with
//!   word-parallel XOR and AND-popcount;
//! * [`NullSpace`]: the rank and null-space generators of a whole column
//!   set at once, by branch-free elimination of the transposed matrix. The
//!   cycle-space decoder runs it once per fault set;
//! * [`Basis`]: an incremental GF(2) basis that tracks, for every basis
//!   vector, *which input vectors combine to it*. Its dependent-insert
//!   witnesses are, in order, exactly `NullSpace`'s generators, so it is
//!   the kernel's differential oracle (with
//!   [`reference::NaiveBasis`] behind it).
//!
//! # Example
//!
//! ```
//! use ftl_gf2::{BitVec, NullSpace};
//!
//! let a = BitVec::from_bits(&[true, false, true]);
//! let b = BitVec::from_bits(&[false, true, true]);
//! let c = BitVec::from_bits(&[true, true, false]);
//! let mut ns = NullSpace::new();
//! ns.reset(3, 3);
//! for col in [&a, &b, &c] {
//!     ns.push_column(col.words());
//! }
//! // a ^ b = c: rank 2, and the one generator is {0, 1, 2}.
//! assert_eq!(ns.eliminate(), 2);
//! assert_eq!(ns.generators(), vec![BitVec::from_bits(&[true, true, true])]);
//! ```
//!
//! `README.md` at the repo root maps these kernels into the full decode
//! pipeline; `perfbench/` measures them in the serving stack
//! (`gf2.basis_insert_ns`, `gf2.and_popcount_ns`, and `NullSpace` through
//! `engine.eliminate_us*`).

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod nullspace;
pub mod reference;
pub mod solve;

pub use bitvec::{BitMatrix, BitVec};
pub use nullspace::NullSpace;
pub use solve::{Basis, DecodeScratch};
