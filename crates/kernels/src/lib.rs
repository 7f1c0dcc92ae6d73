//! Constant-time kernels under test (the paper's case-study workloads).
//!
//! Every kernel is a real RV64 assembly program assembled by
//! [`microsampler_isa::asm`] and run on the [`microsampler_sim`] core. The
//! paper's assembly listings are transcribed directly:
//!
//! * [`modexp`] — square-and-multiply modular exponentiation in five
//!   flavors: the naive branchy version (Listing 1), the register-level
//!   constant-time `cmov` version (Listing 2), the libgcrypt-style
//!   conditional copy with the compiler's preload artifact (`ME-V1-CV`,
//!   Listings 3/4), the branchless dst/dummy select (`ME-V1-MV`,
//!   Listing 5), and the BearSSL byte-wise conditional copy (`ME-V2-Safe`,
//!   Listing 6).
//! * [`memcmp`] — OpenSSL's `CRYPTO_memcmp` (Listing 7) with the dependent
//!   control flow of Listing 8 (the paper's previously-unreported
//!   transient-execution finding).
//! * [`openssl`] — the 27 other constant-time primitives of Table V
//!   (`constant_time_eq/select/ge/lt/cond_swap/lookup/is_zero` families).
//! * [`sbox`] — an extension case study: table-based byte substitution,
//!   leaky direct indexing vs a constant-time full-table scan.
//! * [`inputs`] — deterministic random key/input generation.
//! * [`secrets`] — per-kernel [`secrets::SecretSpec`] taint declarations
//!   consumed by the `microsampler-ct` static analyzer.
//! * [`fixtures`] — seeded-leaky negative controls, one per static
//!   violation class.
//!
//! Each kernel pairs its assembly with a Rust reference model; functional
//! tests run both and require exact agreement. The table-style kernels
//! (everything but [`modexp`]) stage their trials for the one [`batch`]
//! driver, which runs them and checks the outputs against the model.

pub mod batch;
pub mod fixtures;
pub mod inputs;
pub mod memcmp;
pub mod modexp;
pub mod openssl;
pub mod sbox;
pub mod secrets;
