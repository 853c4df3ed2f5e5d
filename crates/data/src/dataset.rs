//! Columnar tabular datasets.
//!
//! A [`Dataset`] is the concrete `x ∈ X^n` for tabular data universes:
//! typed columns, a shared [`Schema`], and an [`Interner`] for categorical
//! strings. Storage is column-major with a per-column missing mask, which
//! keeps predicate evaluation (the hot loop of every counting mechanism and
//! every equivalence-class grouping) a tight scan over a homogeneous vector.

use std::collections::HashMap;
use std::sync::Arc;

use crate::date::Date;
use crate::interner::{Interner, Symbol};
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// Typed storage for one column.
#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Symbol>),
    Bool(Vec<bool>),
    Date(Vec<i32>),
}

impl ColumnData {
    fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(Date::from_day_number(v[i])),
        }
    }

    /// Pushes `v`; returns false on a type mismatch.
    fn push(&mut self, v: Value) -> bool {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col.push(x),
            (ColumnData::Float(col), Value::Float(x)) => col.push(x),
            (ColumnData::Str(col), Value::Str(x)) => col.push(x),
            (ColumnData::Bool(col), Value::Bool(x)) => col.push(x),
            (ColumnData::Date(col), Value::Date(x)) => col.push(x.day_number()),
            _ => return false,
        }
        true
    }

    /// Pushes an arbitrary placeholder for a missing cell.
    fn push_default(&mut self) {
        match self {
            ColumnData::Int(col) => col.push(0),
            ColumnData::Float(col) => col.push(0.0),
            // Index 0 always exists: builders reserve it by interning "".
            ColumnData::Str(col) => col.push(Symbol::from_index(0)),
            ColumnData::Bool(col) => col.push(false),
            ColumnData::Date(col) => col.push(0),
        }
    }

    fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    /// Typed gather: copies the cells at `indices` (in order) into a new
    /// vector of the same type — no per-cell boxing through [`Value`].
    fn gather(&self, indices: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Date(v) => ColumnData::Date(indices.iter().map(|&i| v[i]).collect()),
        }
    }
}

/// One column: typed data plus a missing mask.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    missing: Vec<bool>,
}

impl Column {
    fn new(dtype: DataType) -> Self {
        Column {
            data: ColumnData::new(dtype),
            missing: Vec::new(),
        }
    }

    /// Cell value at row `i` ([`Value::Missing`] if masked).
    pub fn get(&self, i: usize) -> Value {
        if self.missing[i] {
            Value::Missing
        } else {
            self.data.get(i)
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.missing.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty()
    }

    /// The raw `i64` slice if this is an Int column (missing rows hold a
    /// placeholder — consult [`Column::missing_mask`]).
    pub fn int_values(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` slice if this is a Float column.
    pub fn float_values(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The raw symbol slice if this is a Str column.
    pub fn str_values(&self) -> Option<&[Symbol]> {
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The raw bool slice if this is a Bool column.
    pub fn bool_values(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The raw day-number slice if this is a Date column.
    pub fn date_values(&self) -> Option<&[i32]> {
        match &self.data {
            ColumnData::Date(v) => Some(v),
            _ => None,
        }
    }

    /// Per-row missing flags (true = cell is missing and the typed slice
    /// holds a placeholder at that position).
    pub fn missing_mask(&self) -> &[bool] {
        &self.missing
    }

    /// Element type of this column.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// New column holding the cells at `indices`, in order — a typed copy
    /// (value slice + mask), never a [`Value`] round-trip.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> Column {
        Column {
            data: self.data.gather(indices),
            missing: indices.iter().map(|&i| self.missing[i]).collect(),
        }
    }

    fn push(&mut self, v: Value, dtype: DataType) {
        if v.is_missing() {
            self.data.push_default();
            self.missing.push(true);
        } else {
            assert!(
                self.data.push(v),
                "type mismatch: pushed {v:?} into {dtype:?} column"
            );
            self.missing.push(false);
        }
        debug_assert_eq!(self.data.len(), self.missing.len());
    }
}

/// A columnar dataset: `n` rows over a fixed [`Schema`].
///
/// Scans read the typed column slices directly. Datasets are immutable once
/// built except for [`Dataset::append_rows`], the mutation primitive behind
/// the incremental engine's open delta segment. Every append bumps
/// [`Dataset::version`], the staleness key of the incremental engine's
/// per-segment caches.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    interner: Arc<Interner>,
    columns: Vec<Column>,
    n_rows: usize,
    /// Monotone content version: 0 at build, +1 per [`Dataset::append_rows`].
    version: u64,
}

impl Dataset {
    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The shared string interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Resolves an interned string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Number of rows `n`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True iff the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Borrow column `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Cell at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Lightweight view of row `i`.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        assert!(i < self.n_rows, "row {i} out of range {}", self.n_rows);
        RowRef { ds: self, idx: i }
    }

    /// Iterates over row views.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.n_rows).map(move |i| RowRef { ds: self, idx: i })
    }

    /// Materializes row `i` as owned values.
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        (0..self.n_cols()).map(|c| self.get(i, c)).collect()
    }

    /// Monotone content version: 0 when built, bumped by every
    /// [`Dataset::append_rows`]. Caches keyed on `(dataset identity,
    /// version)` — the incremental engine's per-segment selection caches —
    /// use this to detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Appends rows in place — the mutation primitive behind the
    /// incremental engine's open delta segment.
    ///
    /// Bumps [`Dataset::version`]. Clones taken before the append keep their
    /// own rows and their own version, so they are unaffected. Because the interner is shared and append-only-frozen,
    /// [`Value::Str`] cells must carry symbols already interned — derive
    /// them via [`Dataset::interner`] lookups or intern everything up front
    /// in the builder.
    ///
    /// An empty `rows` slice is a no-op: no version bump, caches stay warm.
    ///
    /// # Panics
    /// Panics on arity or type mismatch, or on a `Str` symbol outside the
    /// shared interner.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) {
        if rows.is_empty() {
            return;
        }
        for values in rows {
            assert_eq!(
                values.len(),
                self.columns.len(),
                "row arity {} != schema arity {}",
                values.len(),
                self.columns.len()
            );
            for (c, v) in values.iter().enumerate() {
                if let Value::Str(sym) = v {
                    assert!(
                        (sym.index() as usize) < self.interner.len(),
                        "symbol {sym} not in the shared interner"
                    );
                }
                self.columns[c].push(*v, self.schema.attr(c).dtype);
            }
            self.n_rows += 1;
        }
        self.version += 1;
    }

    /// An empty dataset over the same schema and interner — the
    /// constructor for a fresh delta segment whose symbols resolve through
    /// the base dataset's interner.
    pub fn empty_like(&self) -> Dataset {
        Dataset {
            schema: self.schema.clone(),
            interner: self.interner.clone(),
            columns: self
                .schema
                .attrs()
                .iter()
                .map(|a| Column::new(a.dtype))
                .collect(),
            n_rows: 0,
            version: 0,
        }
    }

    /// New dataset containing the given rows (in the given order). Shares
    /// the schema and the interner allocation (`Arc` clones — symbols in
    /// the derived dataset resolve through the *same* interner), and copies
    /// typed column slices directly without boxing cells through [`Value`].
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select_rows(&self, indices: &[usize]) -> Dataset {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(indices)).collect();
        Dataset {
            schema: self.schema.clone(),
            interner: self.interner.clone(),
            columns,
            n_rows: indices.len(),
            version: 0,
        }
    }

    /// Groups row indices by their tuple of values over `cols`.
    pub fn group_by(&self, cols: &[usize]) -> HashMap<Vec<Value>, Vec<usize>> {
        let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for i in 0..self.n_rows {
            let key: Vec<Value> = cols.iter().map(|&c| self.get(i, c)).collect();
            groups.entry(key).or_default().push(i);
        }
        groups
    }

    /// Counts rows for which `pred` holds.
    pub fn count_rows<F: FnMut(RowRef<'_>) -> bool>(&self, mut pred: F) -> usize {
        self.rows().filter(|r| pred(*r)).count()
    }
}

/// A borrowed view of a single row.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    ds: &'a Dataset,
    idx: usize,
}

impl<'a> RowRef<'a> {
    /// Row index within the dataset.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Cell at column `c`.
    pub fn get(&self, c: usize) -> Value {
        self.ds.get(self.idx, c)
    }

    /// Cell by column name.
    ///
    /// # Panics
    /// Panics if the column does not exist.
    pub fn get_by_name(&self, name: &str) -> Value {
        let c = self
            .ds
            .column_index(name)
            .unwrap_or_else(|| panic!("no column named {name:?}"));
        self.get(c)
    }

    /// Owning dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Materializes the row.
    pub fn values(&self) -> Vec<Value> {
        self.ds.row_values(self.idx)
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Row#{}{:?}", self.idx, self.values())
    }
}

/// Row-at-a-time builder for [`Dataset`].
#[derive(Debug)]
pub struct DatasetBuilder {
    schema: Arc<Schema>,
    interner: Interner,
    columns: Vec<Column>,
    n_rows: usize,
}

impl DatasetBuilder {
    /// Starts an empty dataset over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::from_parts(schema, Interner::new())
    }

    /// Starts from an existing interner (used when deriving datasets).
    pub fn from_parts(schema: Arc<Schema>, mut interner: Interner) -> Self {
        // Index 0 is reserved as the placeholder for missing Str cells.
        interner.intern("");
        let columns = schema
            .attrs()
            .iter()
            .map(|a| Column::new(a.dtype))
            .collect();
        DatasetBuilder {
            schema,
            interner,
            columns,
            n_rows: 0,
        }
    }

    /// Interns a string for use as a [`Value::Str`] cell.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics on arity or type mismatch.
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row arity {} != schema arity {}",
            values.len(),
            self.columns.len()
        );
        for (c, v) in values.into_iter().enumerate() {
            self.columns[c].push(v, self.schema.attr(c).dtype);
        }
        self.n_rows += 1;
    }

    /// Current number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Freezes into an immutable [`Dataset`].
    pub fn finish(self) -> Dataset {
        Dataset {
            schema: self.schema,
            interner: Arc::new(self.interner),
            columns: self.columns,
            n_rows: self.n_rows,
            version: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeDef, AttributeRole};

    fn toy_schema() -> Arc<Schema> {
        Schema::new(vec![
            AttributeDef::new("zip", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("sex", DataType::Str, AttributeRole::QuasiIdentifier),
            AttributeDef::new("disease", DataType::Str, AttributeRole::Sensitive),
        ])
    }

    /// Builds the 4-record toy dataset from §1.1 of the paper.
    fn toy_dataset() -> Dataset {
        let mut b = DatasetBuilder::new(toy_schema());
        let f = b.intern("F");
        let m = b.intern("M");
        let covid = b.intern("COVID");
        let cf = b.intern("CF");
        let asthma = b.intern("Asthma");
        b.push_row(vec![
            Value::Int(23456),
            Value::Int(55),
            Value::Str(f),
            Value::Str(covid),
        ]);
        b.push_row(vec![
            Value::Int(23456),
            Value::Int(42),
            Value::Str(f),
            Value::Str(covid),
        ]);
        b.push_row(vec![
            Value::Int(12345),
            Value::Int(30),
            Value::Str(m),
            Value::Str(cf),
        ]);
        b.push_row(vec![
            Value::Int(12346),
            Value::Int(33),
            Value::Str(f),
            Value::Str(asthma),
        ]);
        b.finish()
    }

    #[test]
    fn build_and_read_back() {
        let ds = toy_dataset();
        assert_eq!(ds.n_rows(), 4);
        assert_eq!(ds.n_cols(), 4);
        assert_eq!(ds.get(0, 0), Value::Int(23456));
        assert_eq!(ds.get(2, 1), Value::Int(30));
        let sex = ds.get(2, 2).as_str_symbol().unwrap();
        assert_eq!(ds.resolve(sex), "M");
    }

    #[test]
    fn row_view_accessors() {
        let ds = toy_dataset();
        let r = ds.row(3);
        assert_eq!(r.get_by_name("age"), Value::Int(33));
        assert_eq!(r.index(), 3);
        assert_eq!(r.values().len(), 4);
    }

    #[test]
    fn missing_cells_round_trip() {
        let mut b = DatasetBuilder::new(toy_schema());
        let f = b.intern("F");
        b.push_row(vec![
            Value::Missing,
            Value::Int(20),
            Value::Str(f),
            Value::Missing,
        ]);
        let ds = b.finish();
        assert!(ds.get(0, 0).is_missing());
        assert_eq!(ds.get(0, 1), Value::Int(20));
        assert!(ds.get(0, 3).is_missing());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut b = DatasetBuilder::new(toy_schema());
        b.push_row(vec![
            Value::Bool(true),
            Value::Int(20),
            Value::Missing,
            Value::Missing,
        ]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut b = DatasetBuilder::new(toy_schema());
        b.push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn select_rows_projects() {
        let ds = toy_dataset();
        let sub = ds.select_rows(&[2, 0]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.get(0, 1), Value::Int(30));
        assert_eq!(sub.get(1, 1), Value::Int(55));
        // Symbols remain resolvable through the shared interner.
        let sym = sub.get(0, 3).as_str_symbol().unwrap();
        assert_eq!(sub.resolve(sym), "CF");
    }

    #[test]
    fn select_rows_shares_interner_allocation() {
        // Regression: select_rows used to deep-clone the Interner and
        // re-box every cell through Value. The derived dataset must resolve
        // symbols through the *same* interner allocation.
        let ds = toy_dataset();
        let sub = ds.select_rows(&[1, 3]);
        assert!(Arc::ptr_eq(ds.interner(), sub.interner()));
        assert!(Arc::ptr_eq(ds.schema(), sub.schema()));
        // And a second derivation still shares it.
        let subsub = sub.select_rows(&[0]);
        assert!(Arc::ptr_eq(ds.interner(), subsub.interner()));
    }

    #[test]
    fn select_rows_preserves_missing_and_duplicates() {
        let mut b = DatasetBuilder::new(toy_schema());
        let f = b.intern("F");
        b.push_row(vec![
            Value::Missing,
            Value::Int(20),
            Value::Str(f),
            Value::Missing,
        ]);
        b.push_row(vec![
            Value::Int(99),
            Value::Missing,
            Value::Missing,
            Value::Str(f),
        ]);
        let ds = b.finish();
        let sub = ds.select_rows(&[1, 0, 1]);
        assert_eq!(sub.n_rows(), 3);
        for (out_row, src_row) in [(0usize, 1usize), (1, 0), (2, 1)] {
            assert_eq!(sub.row_values(out_row), ds.row_values(src_row));
        }
        assert!(sub.get(1, 0).is_missing());
        assert_eq!(sub.get(0, 0), Value::Int(99));
        // Empty selection keeps the schema and shares the interner.
        let empty = ds.select_rows(&[]);
        assert_eq!(empty.n_rows(), 0);
        assert!(Arc::ptr_eq(ds.interner(), empty.interner()));
    }

    #[test]
    fn append_rows_bumps_version() {
        let mut ds = toy_dataset();
        assert_eq!(ds.version(), 0);
        let f = ds.interner().get("F").unwrap();
        let covid = ds.interner().get("COVID").unwrap();
        ds.append_rows(&[vec![
            Value::Int(99999),
            Value::Int(61),
            Value::Str(f),
            Value::Str(covid),
        ]]);
        assert_eq!(ds.version(), 1);
        assert_eq!(ds.n_rows(), 5);
        assert_eq!(ds.get(4, 1), Value::Int(61));
        // Empty append is a no-op: version unchanged.
        ds.append_rows(&[]);
        assert_eq!(ds.version(), 1);
    }

    #[test]
    fn append_rows_leaves_pre_append_clones_untouched() {
        let mut ds = toy_dataset();
        let before = ds.clone();
        let f = ds.interner().get("F").unwrap();
        ds.append_rows(&[vec![
            Value::Int(1),
            Value::Int(2),
            Value::Str(f),
            Value::Missing,
        ]]);
        // Copy-on-write: the clone's rows and version are exactly what they
        // were before the append.
        assert_eq!(before.n_rows(), 4);
        assert_eq!(before.version(), 0);
        assert_eq!(before.column(1).len(), 4);
        assert_eq!(ds.n_rows(), 5);
        assert_eq!(ds.version(), 1);
    }

    #[test]
    fn empty_like_shares_schema_and_interner() {
        let ds = toy_dataset();
        let delta = ds.empty_like();
        assert_eq!(delta.n_rows(), 0);
        assert_eq!(delta.n_cols(), ds.n_cols());
        assert!(Arc::ptr_eq(ds.interner(), delta.interner()));
        assert!(Arc::ptr_eq(ds.schema(), delta.schema()));
    }

    #[test]
    #[should_panic(expected = "not in the shared interner")]
    fn append_rows_rejects_foreign_symbols() {
        let mut ds = toy_dataset();
        let foreign = {
            let mut other = Interner::new();
            for i in 0..100 {
                other.intern(&format!("s{i}"));
            }
            other.intern("outsider")
        };
        ds.append_rows(&[vec![
            Value::Int(1),
            Value::Int(2),
            Value::Str(foreign),
            Value::Missing,
        ]]);
    }

    #[test]
    fn typed_column_slices() {
        let ds = toy_dataset();
        let ages = ds.column(1).int_values().unwrap();
        assert_eq!(ages, &[55, 42, 30, 33]);
        assert!(ds.column(1).float_values().is_none());
        assert!(ds.column(2).str_values().is_some());
        assert_eq!(ds.column(1).missing_mask(), &[false; 4]);
    }

    #[test]
    fn group_by_zip() {
        let ds = toy_dataset();
        let groups = ds.group_by(&[0]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&vec![Value::Int(23456)]], vec![0, 1]);
    }

    #[test]
    fn count_rows_with_predicate() {
        let ds = toy_dataset();
        let n = ds.count_rows(|r| r.get(1).as_int().unwrap() >= 33);
        assert_eq!(n, 3);
    }

    #[test]
    fn rows_iterator_covers_all() {
        let ds = toy_dataset();
        assert_eq!(ds.rows().count(), 4);
        let ages: Vec<i64> = ds.rows().map(|r| r.get(1).as_int().unwrap()).collect();
        assert_eq!(ages, vec![55, 42, 30, 33]);
    }
}
