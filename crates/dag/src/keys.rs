//! Order-preserving u32 quantization of instance cost values.
//!
//! The scheduling kernel keys its heaps on `f64` cost data. For *static*
//! per-task costs (`p_i`, `s_i`) the full 64-bit width is wasted: an
//! instance has at most `2n` distinct cost values, so ranking the
//! distinct values once at [`crate::CsrDag`] construction yields `u32`
//! keys whose integer order equals the `f64` order — half the key width,
//! twice the keys per cache line, and integer comparisons in every sort
//! that consumes them (the priority constructors, the kernel's
//! rank-keyed ready structures).
//!
//! A [`KeyTable`] is a sorted table of the distinct values. Internally
//! each value is stored as its *monotone bit pattern* — the classic
//! sign-fold of the IEEE-754 representation under which unsigned integer
//! order coincides with numeric order for every non-NaN `f64` — so
//! building the table is an integer sort and rank lookups are integer
//! binary searches. `-0.0` is normalized to `+0.0` before encoding, so
//! the two zeros share one rank exactly like they share one numeric
//! value.
//!
//! Quantization is total or absent: if an instance has more distinct
//! values than the table's limit (`u32::MAX` by default; tests lower it
//! to exercise the path), construction *refuses* and the consumers fall
//! back to the `f64` comparators. There is no lossy bucketing — a lossy
//! table could reorder near-equal costs and break the bit-identity
//! contract the differential suite enforces.

/// Order-preserving rank table over a set of `f64` cost values.
///
/// Ranks are dense: the smallest distinct value has rank 0, the largest
/// has rank `len() - 1`, and for any two tabled values
/// `rank(a) < rank(b) ⇔ a < b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyTable {
    /// Distinct values as sorted monotone bit patterns ([`order_key`]).
    keys: Vec<u64>,
}

/// Monotone bit pattern of a non-NaN `f64`: flips the sign bit of
/// non-negative values and all bits of negative ones, so unsigned
/// integer order equals numeric order (`-0.0` is normalized to `+0.0`
/// first, collapsing the two zeros onto one pattern).
#[inline]
fn order_key(v: f64) -> u64 {
    debug_assert!(!v.is_nan(), "cost values are never NaN");
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`order_key`].
#[inline]
fn key_value(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

impl KeyTable {
    /// Maximum number of distinct values a table will hold: every rank
    /// must fit in a `u32`.
    pub const DEFAULT_LIMIT: usize = u32::MAX as usize;

    /// Builds a table over the given cost values (duplicates welcome),
    /// refusing with `None` when they hold more than
    /// [`KeyTable::DEFAULT_LIMIT`] distinct values.
    pub fn build<I: IntoIterator<Item = f64>>(costs: I) -> Option<Self> {
        Self::build_with_limit(costs, Self::DEFAULT_LIMIT)
    }

    /// [`KeyTable::build`] with an explicit distinct-value limit, so the
    /// refusal path is testable without materializing 2³² floats. The
    /// effective limit never exceeds [`KeyTable::DEFAULT_LIMIT`].
    pub fn build_with_limit<I: IntoIterator<Item = f64>>(costs: I, limit: usize) -> Option<Self> {
        Self::build_ranked(costs, limit).map(|(table, _)| table)
    }

    /// [`KeyTable::build_with_limit`] that also ranks every input value:
    /// `ranks[i]` is the rank of the `i`-th value of `costs`, handed out
    /// while one sort of `(key, position)` pairs is deduplicated.
    pub(crate) fn build_ranked<I: IntoIterator<Item = f64>>(
        costs: I,
        limit: usize,
    ) -> Option<(Self, Vec<u32>)> {
        let mut pairs: Vec<(u64, usize)> = costs
            .into_iter()
            .enumerate()
            .map(|(i, v)| (order_key(v), i))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let limit = limit.min(Self::DEFAULT_LIMIT);
        let mut keys: Vec<u64> = Vec::new();
        let mut ranks = vec![0u32; pairs.len()];
        for &(k, i) in &pairs {
            if keys.last() != Some(&k) {
                if keys.len() == limit {
                    return None;
                }
                keys.push(k);
            }
            ranks[i] = (keys.len() - 1) as u32;
        }
        Some((KeyTable { keys }, ranks))
    }

    /// Number of distinct values in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table is empty (built over no values).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Rank of a tabled value: `None` when `v` was not among the values
    /// the table was built over.
    #[inline]
    pub fn rank_of(&self, v: f64) -> Option<u32> {
        self.keys
            .binary_search(&order_key(v))
            .ok()
            .map(|i| i as u32)
    }

    /// The value holding `rank` (inverse of [`KeyTable::rank_of`]).
    #[inline]
    pub fn value_of(&self, rank: u32) -> f64 {
        key_value(self.keys[rank as usize])
    }

    /// Rank of `v`, **appending** it when it is strictly larger than
    /// every tabled value — the one mutation that preserves every
    /// existing rank (the new value takes rank `len()`, nothing shifts).
    ///
    /// Returns `None` when `v` is untabled and not a new maximum (or the
    /// table is full): inserting it would renumber the ranks above it,
    /// so the caller must drop to the exact-`f64` fallback instead.
    /// This is the incremental-delta counterpart of
    /// [`KeyTable::build`] — never lossy, total or absent.
    pub fn rank_or_append(&mut self, v: f64) -> Option<u32> {
        let k = order_key(v);
        match self.keys.binary_search(&k) {
            Ok(i) => Some(i as u32),
            Err(i) if i == self.keys.len() && self.keys.len() < Self::DEFAULT_LIMIT => {
                self.keys.push(k);
                Some(i as u32)
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_dense_and_order_preserving() {
        let t = KeyTable::build([3.0, 1.0, 2.0, 1.0, 3.0]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rank_of(1.0), Some(0));
        assert_eq!(t.rank_of(2.0), Some(1));
        assert_eq!(t.rank_of(3.0), Some(2));
        assert_eq!(t.rank_of(2.5), None);
        assert_eq!(t.value_of(1), 2.0);
    }

    #[test]
    fn zeros_collapse_and_negatives_order_below() {
        let t = KeyTable::build([0.0, -0.0, -1.5, 2.0]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rank_of(-1.5), Some(0));
        assert_eq!(t.rank_of(0.0), Some(1));
        assert_eq!(t.rank_of(-0.0), Some(1));
        assert_eq!(t.rank_of(2.0), Some(2));
        assert_eq!(t.value_of(1), 0.0);
    }

    #[test]
    fn limit_refusal_and_boundary() {
        assert!(KeyTable::build_with_limit([1.0, 2.0, 3.0], 2).is_none());
        let t = KeyTable::build_with_limit([1.0, 2.0, 3.0], 3).unwrap();
        assert_eq!(t.len(), 3);
        // Duplicates don't count against the limit.
        assert!(KeyTable::build_with_limit([1.0; 100], 1).is_some());
    }

    #[test]
    fn subnormals_and_extremes_keep_their_order() {
        let vals = [
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MIN_POSITIVE,
            1e-300,
            1.0,
            1e300,
            f64::MAX,
        ];
        let t = KeyTable::build(vals.iter().copied()).unwrap();
        for w in vals.windows(2) {
            assert!(t.rank_of(w[0]).unwrap() < t.rank_of(w[1]).unwrap(), "{w:?}");
        }
        for v in vals {
            assert_eq!(t.value_of(t.rank_of(v).unwrap()), v);
        }
    }

    #[test]
    fn ranked_build_matches_per_value_lookup() {
        let vals = [3.0, -0.0, 1.0, 2.0, 1.0, 0.0, 3.0, -1.5];
        let (t, ranks) = KeyTable::build_ranked(vals, KeyTable::DEFAULT_LIMIT).unwrap();
        assert_eq!(t, KeyTable::build(vals).unwrap());
        for (v, r) in vals.iter().zip(&ranks) {
            assert_eq!(t.rank_of(*v), Some(*r), "{v}");
        }
        assert!(KeyTable::build_ranked(vals, 4).is_none());
        assert!(KeyTable::build_ranked(vals, 5).is_some());
    }

    #[test]
    fn empty_table_answers_nothing() {
        let t = KeyTable::build(std::iter::empty()).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.rank_of(0.0), None);
    }
}
