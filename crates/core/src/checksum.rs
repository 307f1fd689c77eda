//! The result-multiset checksum.
//!
//! Every gate, test and benchmark pass proves "the parallel join produced
//! the reference join's result" by comparing cardinality plus this
//! checksum, so the engine's store path ([`crate::machine::ResultSink`]),
//! the oracle join and the model joins in the tests all call the one
//! implementation here.
//!
//! Per record the bytes are read as little-endian 64-bit words and dealt
//! round-robin to four independent lanes, 32 bytes per round (the last
//! round zero-padded). A lane step is `x = (lane ^ word) · Kᵢ;
//! lane = x ^ (x >> 32)`: for a fixed word a bijection of the lane, for a
//! fixed lane a bijection of the word, so changing one word always changes
//! its lane and nothing later can undo it. Each lane has its own odd
//! multiplier and its own seed (so moving a word to another lane shows),
//! steps within a lane do not commute (so reordering within a lane shows),
//! and the seeds are offset by a bijection of the record length (so the
//! zero padding is never confused with real zero bytes). The lanes are
//! folded with distinct rotations and passed through the murmur3 64-bit
//! finalizer, whose every input bit reaches every output bit, and only then
//! added — wrapping — into the accumulator, which makes the total
//! independent of record order and of how records were spread over nodes.
//!
//! Four lanes rather than one because the multiply chain is latency-bound:
//! a 416-byte `R ‖ S` result tuple is 13 dependent steps per lane instead
//! of the 416 dependent multiplies of a byte-serial hash. It is not a
//! keyed or collision-resistant hash and does not need to be: the inputs
//! are the simulator's own result tuples, not an adversary's.

/// Bytes consumed per round: one 64-bit word for each of the four lanes.
const BLOCK: usize = 32;

/// Per-lane odd multipliers (the xxHash64 primes).
const MUL: [u64; 4] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

/// Per-lane initial states (fractional digits of π), before the length
/// offset.
const SEED: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Odd multiplier spreading the record length over the lane seeds.
const LEN_MUL: u64 = 0x27D4_EB2F_1656_67C5;

/// Lane rotations of the fold; distinct, so no two lanes are
/// interchangeable.
const FOLD_ROT: [u32; 4] = [1, 7, 12, 18];

#[inline(always)]
fn seed(len: usize) -> [u64; 4] {
    let offset = (len as u64).wrapping_mul(LEN_MUL);
    [
        SEED[0] ^ offset,
        SEED[1] ^ offset,
        SEED[2] ^ offset,
        SEED[3] ^ offset,
    ]
}

#[inline(always)]
fn step<const LANE: usize>(lanes: &mut [u64; 4], block: &[u8; BLOCK]) {
    let word = block[8 * LANE..8 * LANE + 8]
        .try_into()
        .expect("8-byte word");
    let x = (lanes[LANE] ^ u64::from_le_bytes(word)).wrapping_mul(MUL[LANE]);
    lanes[LANE] = x ^ (x >> 32);
}

/// One round. The four steps are written out rather than looped: as a loop
/// the compiler packs them into SSE2 vectors, whose emulated 64-bit
/// multiply is about twice as slow as four scalar ones.
#[inline(always)]
fn round(lanes: &mut [u64; 4], block: &[u8; BLOCK]) {
    step::<0>(lanes, block);
    step::<1>(lanes, block);
    step::<2>(lanes, block);
    step::<3>(lanes, block);
}

/// Absorb every whole block of `bytes`, starting at a block boundary;
/// returns the partial block left over.
#[inline(always)]
fn absorb_blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        round(lanes, block.try_into().expect("exact chunk"));
    }
    blocks.remainder()
}

fn finish(lanes: [u64; 4]) -> u64 {
    let mut h = 0u64;
    for (lane, rot) in lanes.into_iter().zip(FOLD_ROT) {
        h = h.wrapping_add(lane.rotate_left(rot));
    }
    // murmur3 fmix64.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Add the record `a ‖ b` to the multiset checksum `acc` without
/// materializing the concatenation: the result is the same wherever the
/// record is split, including `b` empty (see [`multiset_checksum`]).
#[inline]
pub fn checksum_concat(acc: u64, a: &[u8], b: &[u8]) -> u64 {
    let mut lanes = seed(a.len() + b.len());
    // A partial block: the rest of `a`, then as much of `b` as completes
    // it; or the rest of `b`. Zero-padded when the record ends inside it.
    let mut partial = [0u8; BLOCK];
    let mut rest = b;
    let tail = absorb_blocks(&mut lanes, a);
    if !tail.is_empty() {
        let take = (BLOCK - tail.len()).min(b.len());
        partial[..tail.len()].copy_from_slice(tail);
        partial[tail.len()..tail.len() + take].copy_from_slice(&b[..take]);
        round(&mut lanes, &partial);
        rest = &b[take..];
    }
    let tail = absorb_blocks(&mut lanes, rest);
    if !tail.is_empty() {
        partial = [0u8; BLOCK];
        partial[..tail.len()].copy_from_slice(tail);
        round(&mut lanes, &partial);
    }
    acc.wrapping_add(finish(lanes))
}

/// Add one record to the order-independent checksum of a result multiset.
/// The empty record is legal and distinct from any run of zero bytes.
#[inline]
pub fn multiset_checksum(acc: u64, rec: &[u8]) -> u64 {
    checksum_concat(acc, rec, &[])
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::hash::hash_u32;

    fn hash(rec: &[u8]) -> u64 {
        multiset_checksum(0, rec)
    }

    /// Deterministic non-repeating test bytes.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        (0..n).map(|i| hash_u32(seed, i as u32) as u8).collect()
    }

    #[test]
    fn known_answers() {
        // Pinned so that an edit cannot silently change the function.
        let ramp: Vec<u8> = (0..=255u8).cycle().take(416).collect();
        for (rec, want) in [
            (&b""[..], 0x0b82_b2df_01bc_4321_u64),
            (&b"\0"[..], 0x1c43_7b08_5fa9_ba5f),
            (&b"gamma"[..], 0x6a8e_6d25_a9ca_3b62),
            (&ramp[..208], 0xa289_b487_fcdc_69ec),
            (&ramp[..], 0x8f29_55bd_09b4_860c),
        ] {
            assert_eq!(hash(rec), want, "{}-byte vector", rec.len());
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        for len in [416usize, 13] {
            let rec = bytes(len as u64, len);
            let base = hash(&rec);
            for bit in 0..len * 8 {
                let mut flipped = rec.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(hash(&flipped), base, "len {len} bit {bit}");
            }
        }
    }

    #[test]
    fn single_bit_flips_avalanche() {
        // Strength, not just difference: each flip moves about half of the
        // 64 output bits (a byte-serial multiply hash moves far fewer for
        // bytes near the end of the record).
        let rec = bytes(7, 416);
        let base = hash(&rec);
        let mut min = 64;
        let mut total = 0u32;
        for bit in 0..416 * 8 {
            let mut flipped = rec.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let moved = (hash(&flipped) ^ base).count_ones();
            min = min.min(moved);
            total += moved;
        }
        let mean = total as f64 / (416.0 * 8.0);
        assert!((30.0..34.0).contains(&mean), "mean bits moved {mean}");
        assert!(min >= 14, "weakest flip moved only {min} bits");
    }

    #[test]
    fn swapping_any_two_words_changes_the_hash() {
        let rec = bytes(11, 416);
        let base = hash(&rec);
        let words = 416 / 8;
        for i in 0..words {
            for j in i + 1..words {
                let mut swapped = rec.clone();
                for k in 0..8 {
                    swapped.swap(8 * i + k, 8 * j + k);
                }
                assert_ne!(hash(&swapped), base, "words {i} and {j}");
            }
        }
    }

    #[test]
    fn swapping_the_halves_changes_the_hash() {
        let r = bytes(1, 208);
        let s = bytes(2, 208);
        assert_ne!(checksum_concat(0, &r, &s), checksum_concat(0, &s, &r));
        // Also when the halves are lane-aligned (a multiple of 32 bytes).
        let r = bytes(3, 64);
        let s = bytes(4, 64);
        assert_ne!(checksum_concat(0, &r, &s), checksum_concat(0, &s, &r));
    }

    #[test]
    fn zero_padding_is_not_zero_bytes() {
        for len in [0usize, 1, 5, 8, 13, 31, 32, 33, 208, 416] {
            let rec = bytes(len as u64 + 100, len);
            let mut seen = HashSet::from([hash(&rec)]);
            for zeros in 1..=40 {
                let appended = [&rec[..], &vec![0; zeros]].concat();
                let prepended = [&vec![0; zeros][..], &rec].concat();
                assert!(seen.insert(hash(&appended)), "len {len} + {zeros} zeros");
                // An all-zero (or empty) record reads the same from both ends.
                if prepended != appended {
                    assert!(seen.insert(hash(&prepended)), "{zeros} zeros + len {len}");
                }
            }
        }
        assert_ne!(hash(b""), hash(&[0]));
        assert_ne!(hash(b""), 0, "the empty record still counts");
    }

    #[test]
    fn concat_equals_one_slice_at_every_split() {
        for len in [416usize, 208, 45, 13, 1, 0] {
            let rec = bytes(len as u64 + 9, len);
            let whole = multiset_checksum(5, &rec);
            for split in 0..=len {
                let (a, b) = rec.split_at(split);
                assert_eq!(checksum_concat(5, a, b), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn sum_is_order_independent_and_separates_multisets() {
        let recs: Vec<Vec<u8>> = (0..1_000u64).map(|i| bytes(i, 416)).collect();
        let forward = recs.iter().fold(0, |acc, r| multiset_checksum(acc, r));
        let backward = recs
            .iter()
            .rev()
            .fold(0, |acc, r| multiset_checksum(acc, r));
        assert_eq!(forward, backward);
        // One record replaced, one duplicated in place of another, one
        // dropped: each is a different multiset.
        let mut other = recs.clone();
        other[500] = bytes(5_000, 416);
        assert_ne!(
            other.iter().fold(0, |acc, r| multiset_checksum(acc, r)),
            forward
        );
        let mut dup = recs.clone();
        dup[3] = dup[4].clone();
        assert_ne!(
            dup.iter().fold(0, |acc, r| multiset_checksum(acc, r)),
            forward
        );
        assert_ne!(
            recs[1..].iter().fold(0, |acc, r| multiset_checksum(acc, r)),
            forward
        );
    }

    #[test]
    fn re_pairing_halves_across_records_changes_the_sum() {
        // (r1‖s1) + (r2‖s2) vs (r1‖s2) + (r2‖s1): the classic wrong-partner
        // join bug, invisible to any checksum that is linear in the words.
        let (r1, r2) = (bytes(21, 208), bytes(22, 208));
        let (s1, s2) = (bytes(23, 208), bytes(24, 208));
        let right = checksum_concat(checksum_concat(0, &r1, &s1), &r2, &s2);
        let wrong = checksum_concat(checksum_concat(0, &r1, &s2), &r2, &s1);
        assert_ne!(right, wrong);
    }
}
