//! Seeded 64-bit hash families.
//!
//! The probabilistic-counting analysis of the paper (and of Flajolet–Martin
//! and Alon–Matias–Szegedy before it) assumes hash functions that map
//! itemsets to integers "uniformly distributed over the set of binary strings
//! of length L" (§4.1.1). Three families are provided:
//!
//! * [`MixHasher`] — a seeded avalanche mixer (SplitMix64 finalizer). Not
//!   pairwise independent in the formal sense, but empirically uniform and
//!   by far the fastest; this is the default used by the NIPS estimator.
//! * [`PolyHash`] / [`PairwiseHash`] — degree-`d` polynomial hashing over the
//!   Mersenne prime field `GF(2^61 - 1)`, giving `(d+1)`-wise independence.
//!   `PairwiseHash` is the `d = 1` case used in the AMS-style analysis that
//!   the paper cites for its (ε, δ) guarantees (§4.7.1).
//! * [`Gf2LinearHash`] — a random linear map over GF(2), the "linear hash
//!   functions" discussed in the paper for controlling the distribution of
//!   itemsets over bitmap cells (§4.3.2).
//!
//! All families hash either a single `u64` or a slice of `u64` words (the
//! encoded form of an itemset, see `imp-stream`). Hashing a slice of length 1
//! is guaranteed to agree with hashing the single word, so call sites can mix
//! the two freely.

use rand::Rng;

/// The Mersenne prime `2^61 - 1`, the modulus for polynomial hashing.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// A seeded hash function from `u64` words (and slices of them) to `u64`.
///
/// Implementations must be deterministic for a given construction (seed) and
/// must satisfy `hash_slice(&[x]) == hash_u64(x)`.
pub trait Hasher64: Send + Sync {
    /// Hashes a single 64-bit word.
    fn hash_u64(&self, x: u64) -> u64;

    /// Hashes a slice of 64-bit words (an encoded itemset).
    ///
    /// The default implementation folds the words through [`Self::hash_u64`]
    /// with length-dependent chaining, so that prefixes do not collide with
    /// their extensions.
    fn hash_slice(&self, xs: &[u64]) -> u64 {
        match xs {
            [] => self.hash_u64(0x9e37_79b9_7f4a_7c15),
            [x] => self.hash_u64(*x),
            _ => {
                let mut acc = self.hash_u64(xs.len() as u64);
                for &x in xs {
                    acc = self.hash_u64(acc ^ x);
                }
                acc
            }
        }
    }
}

/// SplitMix64 finalizer: a full-avalanche bijective mixer on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded avalanche mixer. The workhorse hash of the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixHasher {
    seed: u64,
}

impl MixHasher {
    /// Creates a mixer keyed by `seed`. Distinct seeds give (empirically)
    /// independent functions.
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so that consecutive small seeds (0, 1, 2, …) do
        // not produce correlated functions.
        Self {
            seed: mix64(seed ^ 0x5851_f42d_4c95_7f2d),
        }
    }

    /// The (pre-mixed) seed of this hasher.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed this hasher was created from with [`MixHasher::new`]:
    /// the pre-mixing is a bijection, and this is its inverse.
    pub fn unmixed_seed(&self) -> u64 {
        // Undo mix64 step by step: xorshifts by xoring in the further
        // shifts, multiplies by the inverse constants mod 2^64.
        let mut z = self.seed;
        z ^= (z >> 31) ^ (z >> 62);
        z = z.wrapping_mul(0x3196_42b2_d24d_8ec3);
        z ^= (z >> 27) ^ (z >> 54);
        z = z.wrapping_mul(0x96de_1b17_3f11_9089);
        z ^= (z >> 30) ^ (z >> 60);
        z.wrapping_sub(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d
    }

    /// Reconstructs a hasher from a previously observed [`MixHasher::seed`]
    /// value (snapshot restore). The raw value is used verbatim — do not
    /// pass user seeds here, use [`MixHasher::new`].
    pub fn from_premixed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Hasher64 for MixHasher {
    #[inline]
    fn hash_u64(&self, x: u64) -> u64 {
        mix64(x ^ self.seed)
    }
}

/// Multiplication of two residues mod `2^61 - 1` without overflow.
#[inline]
fn mul_mod_m61(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    let lo = (prod & MERSENNE_61 as u128) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// Addition of two residues mod `2^61 - 1`.
#[inline]
fn add_mod_m61(a: u64, b: u64) -> u64 {
    let mut s = a + b; // both < 2^61, no overflow in u64
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// Reduces an arbitrary `u64` into the field `GF(2^61 - 1)`.
#[inline]
fn reduce_m61(x: u64) -> u64 {
    let mut r = (x & MERSENNE_61) + (x >> 61);
    if r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    r
}

/// Degree-`d` polynomial hash over `GF(2^61 - 1)`: a `(d+1)`-wise
/// independent family.
///
/// `h(x) = c_d x^d + … + c_1 x + c_0 mod (2^61 - 1)`, evaluated by Horner's
/// rule. The output is spread back over the full 64-bit range with a final
/// bijective mix so that trailing-zero ranks remain geometric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Draws a random polynomial of the given `degree >= 1` from `rng`.
    /// The leading coefficient is forced non-zero.
    pub fn random<R: Rng + ?Sized>(degree: usize, rng: &mut R) -> Self {
        assert!(degree >= 1, "polynomial hash needs degree >= 1");
        let mut coeffs: Vec<u64> = (0..=degree)
            .map(|_| rng.gen_range(0..MERSENNE_61))
            .collect();
        let lead = coeffs.last_mut().expect("degree+1 coefficients");
        if *lead == 0 {
            *lead = 1;
        }
        Self { coeffs }
    }

    /// Constructs from explicit coefficients `c_0 ..= c_d` (all `< 2^61-1`).
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        assert!(coeffs.len() >= 2, "need degree >= 1");
        assert!(
            coeffs.iter().all(|&c| c < MERSENNE_61),
            "coefficients must be field elements"
        );
        Self { coeffs }
    }

    /// Independence level of the family this function was drawn from.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    #[inline]
    fn eval(&self, x: u64) -> u64 {
        let x = reduce_m61(x);
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = add_mod_m61(mul_mod_m61(acc, x), c);
        }
        acc
    }
}

impl Hasher64 for PolyHash {
    #[inline]
    fn hash_u64(&self, x: u64) -> u64 {
        // The polynomial value is uniform on [0, 2^61-1); re-expand to 64
        // bits with a bijective mixer so low-order bits are usable for
        // trailing-zero ranks.
        mix64(self.eval(x))
    }
}

/// Pairwise-independent hash: the degree-1 special case of [`PolyHash`],
/// `h(x) = (a·x + b) mod (2^61 - 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseHash {
    inner: PolyHash,
}

impl PairwiseHash {
    /// Draws `(a, b)` at random, with `a != 0`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            inner: PolyHash::random(1, rng),
        }
    }

    /// Constructs from explicit `(a, b)` with `a != 0`, both `< 2^61 - 1`.
    pub fn new(a: u64, b: u64) -> Self {
        assert!(a != 0 && a < MERSENNE_61 && b < MERSENNE_61);
        Self {
            inner: PolyHash::from_coeffs(vec![b, a]),
        }
    }
}

impl Hasher64 for PairwiseHash {
    #[inline]
    fn hash_u64(&self, x: u64) -> u64 {
        self.inner.hash_u64(x)
    }
}

/// A random GF(2)-linear map on 64-bit words: `h(x) = M·x ⊕ t` where `M` is
/// a random 64×64 bit matrix and `t` a random translation.
///
/// Linear hash functions have the property (used in §4.3.2's discussion) that
/// each output bit is a parity of a random subset of input bits; they are
/// cheap, pairwise independent when `t` is random, and historically the
/// family analysed for FM-style counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2LinearHash {
    /// Row `i` is the mask of input bits feeding output bit `i`.
    rows: [u64; 64],
    translate: u64,
}

impl Gf2LinearHash {
    /// Draws a random (almost surely invertible) matrix and translation.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut rows = [0u64; 64];
        for row in &mut rows {
            *row = rng.gen();
        }
        Self {
            rows,
            translate: rng.gen(),
        }
    }

    #[inline]
    fn apply(&self, x: u64) -> u64 {
        let mut out = 0u64;
        for (i, &row) in self.rows.iter().enumerate() {
            out |= (((row & x).count_ones() as u64) & 1) << i;
        }
        out ^ self.translate
    }
}

impl Hasher64 for Gf2LinearHash {
    #[inline]
    fn hash_u64(&self, x: u64) -> u64 {
        // Pre-mix so that the GF(2)-linear structure is applied to a
        // well-spread input even for consecutive integer keys.
        self.apply(mix64(x))
    }
}

/// The hash-family choices exposed to benchmarks and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashFamily {
    /// Seeded avalanche mixer ([`MixHasher`]).
    Mix,
    /// Pairwise-independent polynomial over `GF(2^61-1)`.
    Pairwise,
    /// 4-wise independent polynomial over `GF(2^61-1)`.
    FourWise,
    /// Random GF(2)-linear map.
    Gf2Linear,
}

/// A type-erased, heap-allocated hasher for runtime family selection.
pub struct BoxedHasher(Box<dyn Hasher64>);

impl BoxedHasher {
    /// Instantiates the chosen family with randomness from `rng`.
    pub fn from_family<R: Rng + ?Sized>(family: HashFamily, rng: &mut R) -> Self {
        match family {
            HashFamily::Mix => Self(Box::new(MixHasher::new(rng.gen()))),
            HashFamily::Pairwise => Self(Box::new(PairwiseHash::random(rng))),
            HashFamily::FourWise => Self(Box::new(PolyHash::random(3, rng))),
            HashFamily::Gf2Linear => Self(Box::new(Gf2LinearHash::random(rng))),
        }
    }
}

impl Hasher64 for BoxedHasher {
    #[inline]
    fn hash_u64(&self, x: u64) -> u64 {
        self.0.hash_u64(x)
    }

    #[inline]
    fn hash_slice(&self, xs: &[u64]) -> u64 {
        self.0.hash_slice(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mix64_is_bijective_on_sample() {
        // A bijection cannot collide; sample a window and check.
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(mix64(x)));
        }
    }

    #[test]
    fn unmixed_seed_inverts_new() {
        for seed in [0, 1, 7, 42, 0xa11c_e0de, u64::MAX, 0x8000_0000_0000_0000] {
            assert_eq!(MixHasher::new(seed).unmixed_seed(), seed);
        }
    }

    #[test]
    fn mix_hasher_distinct_seeds_differ() {
        let h1 = MixHasher::new(1);
        let h2 = MixHasher::new(2);
        let same = (0..1000)
            .filter(|&x| h1.hash_u64(x) == h2.hash_u64(x))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn slice_of_one_matches_single() {
        let mut rng = StdRng::seed_from_u64(7);
        let hashers: Vec<BoxedHasher> = [
            HashFamily::Mix,
            HashFamily::Pairwise,
            HashFamily::FourWise,
            HashFamily::Gf2Linear,
        ]
        .into_iter()
        .map(|f| BoxedHasher::from_family(f, &mut rng))
        .collect();
        for h in &hashers {
            for x in [0u64, 1, 42, u64::MAX] {
                assert_eq!(h.hash_u64(x), h.hash_slice(&[x]));
            }
        }
    }

    #[test]
    fn slices_with_shared_prefix_do_not_collide() {
        let h = MixHasher::new(99);
        assert_ne!(h.hash_slice(&[1, 2]), h.hash_slice(&[1, 2, 0]));
        assert_ne!(h.hash_slice(&[1]), h.hash_slice(&[1, 0]));
        assert_ne!(h.hash_slice(&[]), h.hash_slice(&[0]));
    }

    #[test]
    fn poly_hash_field_arithmetic() {
        // h(x) = (3x + 5) mod p, spot-check against u128 arithmetic.
        let p = PairwiseHash::new(3, 5);
        for x in [0u64, 1, 1u64 << 60, MERSENNE_61 - 1, u64::MAX] {
            let expect = ((3u128 * (reduce_m61(x) as u128) + 5) % MERSENNE_61 as u128) as u64;
            assert_eq!(p.inner.eval(x), expect, "x = {x}");
        }
    }

    #[test]
    fn mul_mod_m61_matches_u128() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let a = rng.gen_range(0..MERSENNE_61);
            let b = rng.gen_range(0..MERSENNE_61);
            let expect = ((a as u128 * b as u128) % MERSENNE_61 as u128) as u64;
            assert_eq!(mul_mod_m61(a, b), expect);
        }
    }

    #[test]
    fn gf2_linear_is_linear_modulo_translation() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = Gf2LinearHash::random(&mut rng);
        // apply() (without pre-mix) must satisfy h(x^y) ^ h(0) = h(x) ^ h(y).
        for _ in 0..200 {
            let x: u64 = rng.gen();
            let y: u64 = rng.gen();
            assert_eq!(h.apply(x ^ y) ^ h.apply(0), h.apply(x) ^ h.apply(y));
        }
    }

    #[test]
    fn hash_outputs_look_uniform_per_bit() {
        // Each output bit should be ~half ones over many inputs.
        let mut rng = StdRng::seed_from_u64(5);
        for fam in [
            HashFamily::Mix,
            HashFamily::Pairwise,
            HashFamily::FourWise,
            HashFamily::Gf2Linear,
        ] {
            let h = BoxedHasher::from_family(fam, &mut rng);
            let n = 4096u64;
            let mut ones = [0u32; 64];
            for x in 0..n {
                let v = h.hash_u64(x);
                for (b, count) in ones.iter_mut().enumerate() {
                    *count += ((v >> b) & 1) as u32;
                }
            }
            // Only the top bits of the 61-bit polynomial families are
            // re-expanded by mix64, so all 64 bits should be balanced.
            for (b, &count) in ones.iter().enumerate() {
                let frac = count as f64 / n as f64;
                assert!(
                    (0.42..=0.58).contains(&frac),
                    "{fam:?} bit {b} biased: {frac}"
                );
            }
        }
    }
}
