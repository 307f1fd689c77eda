//! Wisconsin relation generation.
//!
//! Each tuple is 208 bytes: thirteen 4-byte integers followed by three
//! 52-byte strings. `unique1` and `unique2` are independent random
//! permutations of `0..n` (so joins on either are one-to-one); `normal` is
//! the §4.4 skewed attribute, drawn from N(50,000, 750) clamped to the
//! benchmark domain `0..=99,999` (the paper reports 12,500 tuples falling
//! within 50,000..50,243 and a maximum of 77 duplicates of one value —
//! both reproduced by construction here, see the tests).

use gamma_core::tuple::Field;
use gamma_core::{Attr, Schema, TupleBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Integer attribute names, in layout order.
pub const INT_ATTRS: [&str; 13] = [
    "unique1",
    "unique2",
    "two",
    "four",
    "ten",
    "twenty",
    "onePercent",
    "tenPercent",
    "twentyPercent",
    "fiftyPercent",
    "normal",
    "evenOnePercent",
    "oddOnePercent",
];

/// A generated row (pre-serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WisconsinRow {
    /// The thirteen integer attributes, ordered per [`INT_ATTRS`].
    pub ints: [u32; 13],
}

impl WisconsinRow {
    /// Serialize to the 208-byte layout.
    pub fn to_bytes(&self, schema: &Schema) -> Vec<u8> {
        let mut t = Vec::new();
        self.write_bytes(schema, &mut t);
        t
    }

    /// Serialize into a reusable buffer (cleared first), so bulk loading
    /// pays one allocation per relation rather than one per row.
    pub fn write_bytes(&self, schema: &Schema, out: &mut Vec<u8>) {
        let attrs = resolve_int_attrs(schema);
        self.write_bytes_with(&attrs, schema.tuple_bytes(), out);
    }

    /// [`WisconsinRow::write_bytes`] with the attribute offsets already
    /// resolved — bulk serialization resolves the 13 names once per
    /// relation instead of once per row.
    pub fn write_bytes_with(&self, attrs: &[Attr; 13], tuple_bytes: usize, out: &mut Vec<u8>) {
        out.clear();
        out.resize(tuple_bytes, 0);
        for (attr, v) in attrs.iter().zip(self.ints) {
            attr.put(out, v);
        }
        // The three 52-byte strings are deterministic functions of unique1,
        // per the benchmark ("$xxxx..." cyclic pattern simplified).
        let u1 = self.ints[0];
        for s in 0..3usize {
            let off = 13 * 4 + s * 52;
            let mut c = ((u1 as usize) + s * 7) % 26;
            for b in out[off..off + 52].iter_mut() {
                *b = b'A' + c as u8;
                c += 1;
                if c == 26 {
                    c = 0;
                }
            }
        }
    }

    /// Value of an integer attribute by name.
    pub fn get(&self, name: &str) -> u32 {
        let i = INT_ATTRS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no attribute {name}"));
        self.ints[i]
    }
}

/// Deterministic Wisconsin relation generator.
pub struct WisconsinGen {
    seed: u64,
}

impl WisconsinGen {
    /// Generator with a fixed seed (all experiments use the same data).
    pub fn new(seed: u64) -> Self {
        WisconsinGen { seed }
    }

    /// The 16-attribute, 208-byte schema.
    pub fn schema() -> Schema {
        let mut fields: Vec<Field> = INT_ATTRS
            .iter()
            .map(|n| Field::Int((*n).to_string()))
            .collect();
        fields.push(Field::Str("stringu1".into(), 52));
        fields.push(Field::Str("stringu2".into(), 52));
        fields.push(Field::Str("string4".into(), 52));
        Schema::new(fields)
    }

    /// Resolve an integer attribute on the Wisconsin schema.
    pub fn attr(name: &str) -> Attr {
        Self::schema().int_attr(name)
    }

    /// Generate an `n`-tuple relation. `domain` is the value domain of the
    /// unique attributes (the benchmark uses `0..100,000` regardless of
    /// `n`, so a 10,000-tuple relation still spans the full domain unless
    /// it is derived via [`WisconsinGen::sample`]).
    pub fn relation(&self, n: usize, tag: u64) -> Vec<WisconsinRow> {
        // The paper's skewed attribute: N(50,000, 750) over the 100,000
        // domain. For scaled-down relations the distribution scales with n
        // so skew experiments stay meaningful at test sizes; at n=100,000
        // this is exactly the paper's distribution.
        let sd = (750.0 * n as f64 / 100_000.0).max(1.0);
        self.relation_nu(n, tag, sd)
    }

    /// Generate an `n`-tuple relation with an explicit standard deviation
    /// for the `normal` attribute (Table 3-style nonuniform data at a
    /// chosen sharpness). `relation` delegates here with the benchmark's
    /// scaled default, so both draw the identical rng stream: equal `sd`
    /// produces byte-identical rows.
    pub fn relation_nu(&self, n: usize, tag: u64, sd: f64) -> Vec<WisconsinRow> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9E3779B97F4A7C15));
        let mut u1: Vec<u32> = (0..n as u32).collect();
        u1.shuffle(&mut rng);
        let mut u2: Vec<u32> = (0..n as u32).collect();
        u2.shuffle(&mut rng);
        let mean = n as f64 / 2.0;
        let normal = Normal::new(mean, sd.max(f64::MIN_POSITIVE)).expect("valid normal");
        (0..n)
            .map(|i| {
                let a = u1[i];
                let nval = normal.sample(&mut rng).round().clamp(0.0, n as f64 - 1.0) as u32;
                WisconsinRow {
                    ints: [
                        a,
                        u2[i],
                        a % 2,
                        a % 4,
                        a % 10,
                        a % 20,
                        a % 100,
                        a % 10,
                        a % 5,
                        a % 2,
                        nval,
                        (a % 100) * 2,
                        (a % 100) * 2 + 1,
                    ],
                }
            })
            .collect()
    }

    /// Randomly select `k` rows (without replacement) — how the paper built
    /// the 10,000-tuple `Bprime` from the 100,000-tuple relation, so its
    /// `unique1` values are uniform over the full domain and its `normal`
    /// attribute keeps the same skewed distribution.
    pub fn sample(&self, rows: &[WisconsinRow], k: usize, tag: u64) -> Vec<WisconsinRow> {
        assert!(k <= rows.len(), "cannot sample {k} of {}", rows.len());
        let mut rng = StdRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0xA0761D6478BD642F));
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        // Partial Fisher-Yates: first k positions are the sample.
        for i in 0..k {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..k].iter().map(|&i| rows[i].clone()).collect()
    }
}

/// Resolve the 13 integer attributes of `schema` in layout order.
fn resolve_int_attrs(schema: &Schema) -> [Attr; 13] {
    INT_ATTRS.map(|n| schema.int_attr(n))
}

/// Serialize rows into one arena-backed batch: a single data buffer for
/// the whole relation instead of one `Vec<u8>` per row.
pub fn to_tuple_batch(rows: &[WisconsinRow]) -> TupleBatch {
    let schema = WisconsinGen::schema();
    let attrs = resolve_int_attrs(&schema);
    let per = schema.tuple_bytes();
    let mut batch = TupleBatch::with_capacity(rows.len(), per);
    let mut buf = Vec::with_capacity(per);
    for r in rows {
        r.write_bytes_with(&attrs, per, &mut buf);
        batch.push(&buf);
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tuple_is_208_bytes() {
        let s = WisconsinGen::schema();
        assert_eq!(s.tuple_bytes(), 208, "13*4 + 3*52");
    }

    #[test]
    fn unique_attrs_are_permutations() {
        let g = WisconsinGen::new(42);
        let rows = g.relation(5_000, 0);
        let mut u1: Vec<u32> = rows.iter().map(|r| r.get("unique1")).collect();
        u1.sort_unstable();
        assert_eq!(u1, (0..5_000).collect::<Vec<_>>());
        let mut u2: Vec<u32> = rows.iter().map(|r| r.get("unique2")).collect();
        u2.sort_unstable();
        assert_eq!(u2, (0..5_000).collect::<Vec<_>>());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WisconsinGen::new(7).relation(100, 3);
        let b = WisconsinGen::new(7).relation(100, 3);
        assert_eq!(a, b);
        let c = WisconsinGen::new(8).relation(100, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_attribute_matches_paper_statistics() {
        // "12,500 tuples had join attribute values in the range of 50,000
        //  to 50,243. However, no single attribute value occurred in more
        //  than 77 tuples." (for the 100,000 tuple relation)
        let g = WisconsinGen::new(1989);
        let rows = g.relation(100_000, 0);
        let dense = rows
            .iter()
            .filter(|r| (50_000..=50_243).contains(&r.get("normal")))
            .count();
        assert!(
            (11_000..14_000).contains(&dense),
            "dense range holds {dense}, paper saw 12,500"
        );
        let mut freq: HashMap<u32, u32> = HashMap::new();
        for r in &rows {
            *freq.entry(r.get("normal")).or_default() += 1;
        }
        let max_dup = freq.values().copied().max().unwrap();
        assert!(
            (40..120).contains(&max_dup),
            "max duplicate count {max_dup}, paper saw 77"
        );
    }

    #[test]
    fn relation_nu_with_default_sd_matches_relation() {
        let g = WisconsinGen::new(1989);
        let n = 4_000;
        let sd = (750.0 * n as f64 / 100_000.0).max(1.0);
        assert_eq!(g.relation(n, 2), g.relation_nu(n, 2, sd));
    }

    #[test]
    fn sharper_nu_concentrates_more_duplicates() {
        // Table 3-style knob: a smaller standard deviation packs the
        // `normal` attribute into fewer distinct values, raising the
        // worst-case duplicate count the skew experiments lean on.
        let g = WisconsinGen::new(1989);
        let n = 4_000;
        let max_dup = |rows: &[WisconsinRow]| {
            let mut freq: HashMap<u32, u32> = HashMap::new();
            for r in rows {
                *freq.entry(r.get("normal")).or_default() += 1;
            }
            freq.values().copied().max().unwrap()
        };
        let default_sd = (750.0 * n as f64 / 100_000.0).max(1.0);
        let broad = max_dup(&g.relation_nu(n, 0, default_sd));
        let sharp = max_dup(&g.relation_nu(n, 0, n as f64 / 500.0));
        // n/500 = 8 << default 30: the sharp distribution must be visibly
        // more concentrated.
        assert!(
            sharp > broad,
            "sharp sd should concentrate duplicates ({sharp} vs {broad})"
        );
    }

    #[test]
    fn sample_preserves_rows_and_size() {
        let g = WisconsinGen::new(5);
        let rows = g.relation(1_000, 0);
        let s = g.sample(&rows, 100, 1);
        assert_eq!(s.len(), 100);
        for r in &s {
            assert!(rows.contains(r));
        }
        // Distinct unique1 values (no replacement).
        let mut u: Vec<u32> = s.iter().map(|r| r.get("unique1")).collect();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 100);
    }

    #[test]
    fn derived_attributes_consistent() {
        let g = WisconsinGen::new(5);
        for r in g.relation(500, 0) {
            let a = r.get("unique1");
            assert_eq!(r.get("two"), a % 2);
            assert_eq!(r.get("twenty"), a % 20);
        }
    }

    #[test]
    fn serialization_roundtrips_ints() {
        let g = WisconsinGen::new(5);
        let schema = WisconsinGen::schema();
        let rows = g.relation(50, 0);
        for r in &rows {
            let bytes = r.to_bytes(&schema);
            assert_eq!(bytes.len(), 208);
            for name in INT_ATTRS {
                assert_eq!(schema.int_attr(name).get(&bytes), r.get(name));
            }
        }
    }
}
