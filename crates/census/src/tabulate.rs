//! The publication system: census-style tables per block.
//!
//! Modeled on the 2010 SF1 tables the real attack consumed: a total count
//! (P1), sex-by-five-year-age-band counts *per race* (the P12A–I family —
//! its race × sex × age coupling is what makes joint reconstruction
//! possible), and summary statistics of age (mean rounded to two decimals
//! and median, as the Census Bureau published). Exact single years of age
//! are never released — the attack recovers them anyway.

use so_data::BitVec;

use crate::microdata::{Person, Race, Sex};

/// Number of five-year age bands (ages 0–99).
pub const N_BANDS: usize = 20;

/// Published tables for one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTables {
    /// P1: total population of the block.
    pub total: usize,
    /// P12A-I: counts by race × sex × five-year age band.
    pub race_sex_band: [[[usize; N_BANDS]; 2]; 5],
    /// Mean age, rounded to 2 decimal places.
    pub mean_age: f64,
    /// Median age (lower-interpolated to 0.5 precision, as published).
    pub median_age: f64,
}

impl BlockTables {
    /// Count for a `(race, sex, band)` cell.
    pub fn cell(&self, race: Race, sex: Sex, band: usize) -> usize {
        self.race_sex_band[race.index()][sex.index()][band]
    }

    /// Marginal count by sex.
    pub fn by_sex(&self, sex: Sex) -> usize {
        self.race_sex_band
            .iter()
            .map(|by_sex| by_sex[sex.index()].iter().sum::<usize>())
            .sum()
    }

    /// Marginal count by race.
    pub fn by_race(&self, race: Race) -> usize {
        self.race_sex_band[race.index()]
            .iter()
            .map(|d| d.iter().sum::<usize>())
            .sum()
    }

    /// The exact age sum recoverable from the rounded mean: `mean` is
    /// rounded to 2 decimals, so the true sum lies within `±0.005·total` of
    /// `mean·total`; for block sizes below 100 that pins the integer sum
    /// exactly.
    pub fn exact_age_sum(&self) -> Option<u32> {
        let approx = self.mean_age * self.total as f64;
        let candidate = approx.round();
        let slack = 0.005 * self.total as f64 + 1e-9;
        if (approx - candidate).abs() <= slack {
            Some(candidate as u32)
        } else {
            None
        }
    }
}

/// Median with 0.5 precision: middle element (odd) or average of the two
/// middles (even).
pub fn median_of_sorted(ages: &[u8]) -> f64 {
    assert!(!ages.is_empty());
    debug_assert!(ages.windows(2).all(|w| w[0] <= w[1]));
    let n = ages.len();
    if n % 2 == 1 {
        f64::from(ages[n / 2])
    } else {
        f64::from(u16::from(ages[n / 2 - 1]) + u16::from(ages[n / 2])) / 2.0
    }
}

/// Publishes the tables for one block.
///
/// The P12 cells are computed on the word-parallel bitmap path: one
/// [`BitVec`] per race, sex, and age band, with each cell a
/// word-level AND + popcount. Empty race × sex planes are skipped without
/// touching their 20 band cells. [`tabulate_block_scalar`] keeps the
/// per-person scatter as the reference oracle.
///
/// # Panics
/// Panics on an empty block (the Census suppresses empty blocks).
pub fn tabulate_block(people: &[Person]) -> BlockTables {
    assert!(
        !people.is_empty(),
        "empty block is suppressed, not published"
    );
    let n = people.len();
    let race_bm: Vec<BitVec> = (0..5)
        .map(|ri| BitVec::from_fn(n, |i| people[i].race.index() == ri))
        .collect();
    let sex_bm: Vec<BitVec> = (0..2)
        .map(|si| BitVec::from_fn(n, |i| people[i].sex.index() == si))
        .collect();
    let band_bm: Vec<BitVec> = (0..N_BANDS)
        .map(|b| BitVec::from_fn(n, |i| usize::from(people[i].age / 5).min(N_BANDS - 1) == b))
        .collect();
    let mut race_sex_band = [[[0usize; N_BANDS]; 2]; 5];
    for (ri, race) in race_bm.iter().enumerate() {
        for (si, sex) in sex_bm.iter().enumerate() {
            let plane = race.and(sex);
            if plane.is_zero() {
                continue;
            }
            for (b, band) in band_bm.iter().enumerate() {
                race_sex_band[ri][si][b] = plane.and(band).count_ones();
            }
        }
    }
    let mut ages: Vec<u8> = people.iter().map(|p| p.age).collect();
    let sum: u32 = ages.iter().map(|&a| u32::from(a)).sum();
    ages.sort_unstable();
    let mean = f64::from(sum) / n as f64;
    BlockTables {
        total: n,
        race_sex_band,
        mean_age: (mean * 100.0).round() / 100.0,
        median_age: median_of_sorted(&ages),
    }
}

/// Workload-planned variant of [`tabulate_block`]: the 200 P12 cells are
/// declared as one batch of `race ∧ sex ∧ age-band` conjunctions over a
/// hash-consed [`so_plan::PredPool`] and compiled into a single
/// [`so_plan::QueryPlan`] against a columnar view of the block.
///
/// The planner recovers the plane-sharing of the hand-written bitmap path
/// automatically: the 5 race, 2 sex, and 20 band atoms are each scanned
/// exactly once (27 scans for 200 cells), and every cell is word-level ANDs
/// over cached child bitmaps. Kept alongside [`tabulate_block`] to pin the
/// two paths against each other; [`tabulate_block_scalar`] remains the
/// row-at-a-time oracle for both.
///
/// # Panics
/// Panics on an empty block (the Census suppresses empty blocks).
pub fn tabulate_block_planned(people: &[Person]) -> BlockTables {
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema, Value};
    use so_plan::{Atom, NodeCache, ParallelExecutor, PlanOutcome, PredPool, QueryPlan};

    assert!(
        !people.is_empty(),
        "empty block is suppressed, not published"
    );
    let schema = Schema::new(vec![
        AttributeDef::new("race", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("sex", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for p in people {
        b.push_row(vec![
            Value::Int(p.race.index() as i64),
            Value::Int(p.sex.index() as i64),
            Value::Int(i64::from(p.age)),
        ]);
    }
    let ds = b.finish();

    let mut pool = PredPool::new();
    let mut targets = Vec::with_capacity(5 * 2 * N_BANDS);
    for ri in 0..5i64 {
        for si in 0..2i64 {
            for band in 0..N_BANDS {
                let race = pool.atom(Atom::ValueEquals {
                    col: 0,
                    value: Value::Int(ri),
                });
                let sex = pool.atom(Atom::ValueEquals {
                    col: 1,
                    value: Value::Int(si),
                });
                // The last band absorbs everything at and above its floor,
                // mirroring the `min(N_BANDS - 1)` clamp of the bitmap path.
                let (lo, hi) = if band == N_BANDS - 1 {
                    ((band * 5) as i64, i64::MAX)
                } else {
                    ((band * 5) as i64, (band * 5 + 4) as i64)
                };
                let age = pool.atom(Atom::IntRange { col: 2, lo, hi });
                targets.push(Some(pool.and(vec![race, sex, age])));
            }
        }
    }
    let plan = QueryPlan::compile(&pool, targets);
    let mut cache = NodeCache::new();
    let no_evaluators = std::collections::HashMap::new();
    // Sharded execution (SO_THREADS override); bit-identical to serial.
    let (outcomes, _) =
        ParallelExecutor::from_env().execute(&plan, &pool, &ds, &no_evaluators, &mut cache);

    let mut race_sex_band = [[[0usize; N_BANDS]; 2]; 5];
    let mut cells = outcomes.into_iter();
    for by_sex in race_sex_band.iter_mut() {
        for by_band in by_sex.iter_mut() {
            for cell in by_band.iter_mut() {
                match cells.next().expect("one outcome per cell") {
                    PlanOutcome::Count(c) => *cell = c,
                    PlanOutcome::Unanswerable => unreachable!("tabular atoms only"),
                }
            }
        }
    }
    let mut ages: Vec<u8> = people.iter().map(|p| p.age).collect();
    let sum: u32 = ages.iter().map(|&a| u32::from(a)).sum();
    ages.sort_unstable();
    let mean = f64::from(sum) / people.len() as f64;
    BlockTables {
        total: people.len(),
        race_sex_band,
        mean_age: (mean * 100.0).round() / 100.0,
        median_age: median_of_sorted(&ages),
    }
}

/// Row-at-a-time reference implementation of [`tabulate_block`], kept as the
/// oracle the bitmap path is tested against.
///
/// # Panics
/// Panics on an empty block (the Census suppresses empty blocks).
pub fn tabulate_block_scalar(people: &[Person]) -> BlockTables {
    assert!(
        !people.is_empty(),
        "empty block is suppressed, not published"
    );
    let mut race_sex_band = [[[0usize; N_BANDS]; 2]; 5];
    let mut ages: Vec<u8> = Vec::with_capacity(people.len());
    let mut sum = 0u32;
    for p in people {
        let band = usize::from(p.age / 5).min(N_BANDS - 1);
        race_sex_band[p.race.index()][p.sex.index()][band] += 1;
        ages.push(p.age);
        sum += u32::from(p.age);
    }
    ages.sort_unstable();
    let mean = f64::from(sum) / people.len() as f64;
    BlockTables {
        total: people.len(),
        race_sex_band,
        mean_age: (mean * 100.0).round() / 100.0,
        median_age: median_of_sorted(&ages),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(age: u8, sex: Sex, race: Race) -> Person {
        Person { age, sex, race }
    }

    #[test]
    fn tabulation_counts_are_consistent() {
        let people = vec![
            p(34, Sex::F, Race::White),
            p(37, Sex::M, Race::White),
            p(8, Sex::F, Race::Black),
            p(71, Sex::M, Race::Asian),
            p(65, Sex::F, Race::White),
        ];
        let t = tabulate_block(&people);
        assert_eq!(t.total, 5);
        assert_eq!(t.by_sex(Sex::F), 3);
        assert_eq!(t.by_sex(Sex::M), 2);
        assert_eq!(t.by_race(Race::White), 3);
        assert_eq!(t.cell(Race::White, Sex::F, 6), 1); // 34 → band 6
        assert_eq!(t.cell(Race::White, Sex::M, 7), 1); // 37 → band 7
        assert_eq!(t.cell(Race::Black, Sex::F, 1), 1); // 8 → band 1
        assert_eq!(t.cell(Race::Asian, Sex::M, 14), 1); // 71 → band 14
        assert_eq!(t.cell(Race::White, Sex::F, 13), 1); // 65 → band 13
        assert_eq!(t.median_age, 37.0);
        assert_eq!(t.mean_age, 43.0);
    }

    #[test]
    fn mean_rounding_still_reveals_exact_sum_for_small_blocks() {
        let people = vec![
            p(33, Sex::F, Race::White),
            p(34, Sex::M, Race::White),
            p(36, Sex::F, Race::Black),
        ];
        let t = tabulate_block(&people);
        // mean = 34.333... → published 34.33; 34.33*3 = 102.99 → 103.
        assert_eq!(t.mean_age, 34.33);
        assert_eq!(t.exact_age_sum(), Some(103));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median_of_sorted(&[1, 2, 3]), 2.0);
        assert_eq!(median_of_sorted(&[1, 2, 3, 10]), 2.5);
        assert_eq!(median_of_sorted(&[5]), 5.0);
    }

    #[test]
    fn age_99_lands_in_last_band() {
        let t = tabulate_block(&[p(99, Sex::F, Race::Other)]);
        assert_eq!(t.cell(Race::Other, Sex::F, 19), 1);
    }

    #[test]
    #[should_panic(expected = "empty block")]
    fn empty_block_rejected() {
        tabulate_block(&[]);
    }

    #[test]
    fn bitmap_and_scalar_tabulation_agree() {
        use crate::microdata::{CensusConfig, CensusData};
        use so_data::rng::seeded_rng;

        let data = CensusData::generate(&CensusConfig::default(), &mut seeded_rng(0xC3115));
        for b in 0..data.n_blocks() {
            let people = data.block(b);
            if people.is_empty() {
                continue;
            }
            assert_eq!(
                tabulate_block(people),
                tabulate_block_scalar(people),
                "block {b} diverged"
            );
        }
    }

    /// The workload-planned tabulation matches the hand-written bitmap path
    /// on every generated block, and its plan scans each of the 27 atoms
    /// exactly once for all 200 cells.
    #[test]
    fn planned_and_bitmap_tabulation_agree() {
        use crate::microdata::{CensusConfig, CensusData};
        use so_data::rng::seeded_rng;

        let data = CensusData::generate(&CensusConfig::default(), &mut seeded_rng(0xC3116));
        for b in 0..data.n_blocks() {
            let people = data.block(b);
            if people.is_empty() {
                continue;
            }
            assert_eq!(
                tabulate_block_planned(people),
                tabulate_block(people),
                "block {b} diverged"
            );
        }
    }
}
