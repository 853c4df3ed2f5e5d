//! Shared data models for the experiments.

use std::sync::Arc;

use singling_out_core::game::TabularModel;
use so_data::dist::{AttributeDistribution, Categorical, RowDistribution};
use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value};

/// The "typical dataset with many attributes" used by the k-anonymity
/// experiments (E8, E9, E15): two generalized quasi-identifiers over wide
/// integer domains plus three high-cardinality columns that anonymizers
/// release verbatim. The released columns drive equivalence-class predicate
/// weights into negligible territory, per Theorem 2.10's argument.
pub fn wide_tabular_model() -> TabularModel {
    let diseases: Vec<String> = (0..120).map(|i| format!("disease_{i}")).collect();
    let occupations: Vec<String> = (0..150).map(|i| format!("occupation_{i}")).collect();
    let schema = Schema::new(vec![
        AttributeDef::new("zip", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("age_days", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("disease", DataType::Str, AttributeRole::Sensitive),
        AttributeDef::new("occupation", DataType::Str, AttributeRole::Insensitive),
        AttributeDef::new("income_band", DataType::Int, AttributeRole::Insensitive),
    ]);
    let dist = RowDistribution::new(
        schema,
        vec![
            AttributeDistribution::IntUniform { lo: 0, hi: 99_999 },
            AttributeDistribution::IntUniform { lo: 0, hi: 36_499 },
            AttributeDistribution::StrChoice {
                values: diseases,
                dist: Categorical::uniform(120),
            },
            AttributeDistribution::StrChoice {
                values: occupations,
                dist: Categorical::uniform(150),
            },
            AttributeDistribution::IntChoice {
                values: (0..80).collect(),
                dist: Categorical::uniform(80),
            },
        ],
    );
    TabularModel::new(dist.sampler())
}

/// QI columns of [`wide_tabular_model`].
pub const WIDE_QI_COLS: [usize; 2] = [0, 1];

/// Generalization ladders for the Datafly runs over [`wide_tabular_model`].
pub fn wide_model_hierarchies() -> Arc<Vec<so_kanon::AttributeHierarchy>> {
    Arc::new(vec![
        so_kanon::AttributeHierarchy::ZipPrefix { digits: 5 },
        so_kanon::AttributeHierarchy::Numeric {
            anchor: 0,
            widths: vec![365, 1_825, 3_650, 18_250],
        },
    ])
}

/// A deterministic dept × sex dataset (`dept = i % 5`, `sex = i % 2`): the
/// honest cross-tab target of the gatekeeper demos (E16–E18).
pub fn crosstab_dataset(n: usize) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("sex", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..n {
        b.push_row(vec![Value::Int((i % 5) as i64), Value::Int((i % 2) as i64)]);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use singling_out_core::game::DataModel;
    use so_data::rng::seeded_rng;

    #[test]
    fn model_samples_valid_rows() {
        let m = wide_tabular_model();
        let mut rng = seeded_rng(1);
        let rows = m.sample_dataset(50, &mut rng);
        assert_eq!(rows.len(), 50);
        for r in rows {
            assert_eq!(r.len(), 5);
            assert!((0..=99_999).contains(&r[0].as_int().unwrap()));
        }
    }
}
