//! GF(2) linear algebra for the fast cycle-space decoder (Section 3.1.3).
//!
//! The decoder of Lemma 3.5 reduces fault-tolerant connectivity to asking
//! whether one of two linear systems `A·x = w₁ / A·x = w₂` over GF(2) has a
//! solution, where the columns of `A` are the augmented cycle-space labels
//! `φ′(e)` of the faulty edges. This crate provides:
//!
//! * [`BitVec`]: packed bit vectors with XOR composition;
//! * [`Basis`]: an incremental GF(2) basis that tracks, for every basis
//!   vector, *which input vectors combine to it* — so a solution certificate
//!   (the fault subset `F′`) falls out of the elimination;
//! * [`solve()`]: membership of a target in the span, with certificate;
//! * [`NullSpace`]: the rank and null-space generators of a whole column
//!   set at once, by branch-free elimination of the transposed matrix. The
//!   serving engine runs it once per fault set; its generators are
//!   bit-identical, in order, to the witnesses of `Basis`'s dependent
//!   inserts, and `Basis` stays as its differential oracle.
//!
//! # Example
//!
//! ```
//! use ftl_gf2::{BitVec, solve};
//!
//! let a = BitVec::from_bits(&[true, false, true]);
//! let b = BitVec::from_bits(&[false, true, true]);
//! let t = BitVec::from_bits(&[true, true, false]);
//! // a ^ b = t, so the certificate is {0, 1}.
//! let x = solve(&[a, b], &t).expect("solvable");
//! assert!(x.get(0) && x.get(1));
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
pub use solve::{solve, solve_brute_force, Basis, DecodeScratch};
