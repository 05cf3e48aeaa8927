//! Seeded randomness shared by the labeling schemes.
//!
//! The sketch-based scheme of Section 3.2 distributes two random seeds in
//! its labels: `S_ID`, which determines the unique edge identifiers of
//! Lemma 3.8, and `S_h`, which determines the pairwise-independent hash
//! functions that sample edges into sketch levels (Fact A.2). Decoders
//! recompute everything from those seeds — the defining trick of the whole
//! construction — so this crate provides deterministic, splittable seeded
//! primitives:
//!
//! * [`Seed`]: a 64-bit seed with cheap `derive` splitting;
//! * [`prf`]: a SplitMix64-based keyed PRF;
//! * [`pairwise::PairwiseHash`]: a pairwise-independent hash family over the
//!   Mersenne prime `2^61 - 1`;
//! * [`uid`]: unique edge identifiers with the XOR-validity test of
//!   Lemma 3.10 (substitution S1 in DESIGN.md).
//!
//! Why determinism is load-bearing here — and the clippy
//! `disallowed-types` wall that enforces it — is covered in
//! `docs/static-analysis.md`; the crate map is in `README.md`.

#![forbid(unsafe_code)]

pub mod det_hash;
pub mod pairwise;
pub mod prf;
pub mod uid;

pub use det_hash::{DetBuildHasher, DetHashMap, DetHashSet};
pub use pairwise::PairwiseHash;
pub use prf::{splitmix64, Seed};
pub use uid::{EdgeUid, UidSpace};
