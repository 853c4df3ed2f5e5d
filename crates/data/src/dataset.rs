//! Columnar tabular datasets.
//!
//! A [`Dataset`] is the concrete `x ∈ X^n` for tabular data universes:
//! typed columns, a shared [`Schema`], and an [`Interner`] for categorical
//! strings. Storage is column-major with a per-column missing mask, which
//! keeps predicate evaluation (the hot loop of every counting mechanism and
//! every equivalence-class grouping) a tight scan over a homogeneous vector.
//!
//! A count over a table is linear in the histogram of its rows, so a
//! dataset with few distinct rows also has a small **distinct-row form**
//! ([`Dataset::distinct_rows`]): one representative row per distinct row
//! plus a `u64` weight per representative (its multiplicity). A predicate
//! that reads only cell values selects equal rows together, so its count
//! over the dataset is the weighted count of its selection over the form.
//! The form exists only when there are at most `n_rows / 64` distinct rows
//! — a pure function of the data — so a scan of the form costs at most
//! 1/64 of a full scan. It is built lazily, once, by one typed pass that
//! stops as soon as the cap is exceeded, and [`Dataset::append_rows`]
//! drops it.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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
    fn with_capacity(dtype: DataType, rows: usize) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(rows)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(rows)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(rows)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(rows)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(rows)),
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

    /// Writes the cells of `rows` as key words into `out` (one word every
    /// `stride`): equal words ⇔ equal cells under [`Value`]'s `Eq`
    /// (floats by bit pattern, which `total_cmp` equality is).
    fn key_words(&self, rows: std::ops::Range<usize>, out: &mut [u64], stride: usize) {
        fn fill<T: Copy>(vals: &[T], out: &mut [u64], stride: usize, word: impl Fn(T) -> u64) {
            for (slot, &v) in out.iter_mut().step_by(stride).zip(vals) {
                *slot = word(v);
            }
        }
        match self {
            ColumnData::Int(v) => fill(&v[rows], out, stride, |x| x as u64),
            ColumnData::Float(v) => fill(&v[rows], out, stride, f64::to_bits),
            ColumnData::Str(v) => fill(&v[rows], out, stride, |x| u64::from(x.index())),
            ColumnData::Bool(v) => fill(&v[rows], out, stride, u64::from),
            ColumnData::Date(v) => fill(&v[rows], out, stride, |x| u64::from(x as u32)),
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
    fn with_capacity(dtype: DataType, rows: usize) -> Self {
        Column {
            data: ColumnData::with_capacity(dtype, rows),
            missing: Vec::with_capacity(rows),
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
/// a versioned dataset's open delta segment. Every append bumps
/// [`Dataset::version`], the staleness key of the counting engine's
/// per-segment caches.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    interner: Arc<Interner>,
    columns: Vec<Column>,
    n_rows: usize,
    /// Monotone content version: 0 at build, +1 per [`Dataset::append_rows`].
    version: u64,
    /// The distinct-row form, built on first use: `Some` when the dataset
    /// qualifies, `None` when it was found not to. Shared by clones.
    distinct: OnceLock<Option<Arc<DistinctRows>>>,
}

/// Rows per distinct row a dataset needs for its distinct-row form to
/// exist: the form holds at most `n_rows / DISTINCT_ROW_DIVISOR` rows.
const DISTINCT_ROW_DIVISOR: usize = 64;

/// The weighted distinct-row form of a [`Dataset`] (see
/// [`Dataset::distinct_rows`]): one representative per distinct row, in
/// order of first occurrence, and each one's multiplicity.
#[derive(Debug)]
pub struct DistinctRows {
    rows: Dataset,
    weights: Vec<u64>,
}

impl DistinctRows {
    /// The representative rows — a [`Dataset::select_rows`] of each
    /// distinct row's first occurrence, sharing schema and interner.
    pub fn rows(&self) -> &Dataset {
        &self.rows
    }

    /// Per-representative multiplicities; they sum to the source
    /// dataset's row count.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

/// The distinct-row build's table: an open-addressing map from a row key
/// (`width` words) to its slot, with the keys stored flat in slot order.
/// It allocates only as distinct rows arrive, never per row.
struct RowSlots {
    width: usize,
    /// Slot `s`'s key is `keys[s * width..(s + 1) * width]`.
    keys: Vec<u64>,
    /// `slot + 1` per bucket, 0 when empty; a power of two at most half
    /// full.
    buckets: Vec<u32>,
}

impl RowSlots {
    fn new(width: usize) -> Self {
        RowSlots {
            width,
            keys: Vec::new(),
            buckets: vec![0; 64],
        }
    }

    fn len(&self) -> usize {
        self.keys.len() / self.width
    }

    /// Multiply-rotate hash; the top bits index the buckets (they are the
    /// best mixed after the final multiply).
    fn bucket_of(&self, key: &[u64]) -> usize {
        let mut h = 0u64;
        for &w in key {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        (h >> (64 - self.buckets.len().trailing_zeros())) as usize
    }

    /// `Ok(slot)` if `key` is present, else `Err(bucket)` to insert at.
    fn find(&self, key: &[u64]) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket_of(key);
        loop {
            match self.buckets[b] as usize {
                0 => return Err(b),
                s if self.keys[(s - 1) * self.width..s * self.width]
                    .iter()
                    .zip(key)
                    .all(|(a, b)| a == b) =>
                {
                    return Ok(s - 1)
                }
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Stores `key` as the next slot, in the bucket [`RowSlots::find`]
    /// returned for it.
    fn insert(&mut self, bucket: usize, key: &[u64]) {
        self.keys.extend_from_slice(key);
        self.buckets[bucket] = u32::try_from(self.len()).expect("distinct rows fit in u32");
        if 2 * self.len() > self.buckets.len() {
            let grown = vec![0; 2 * self.buckets.len()];
            let old = std::mem::replace(&mut self.buckets, grown);
            for s in old.into_iter().filter(|&s| s != 0) {
                let s = s as usize;
                let key = &self.keys[(s - 1) * self.width..s * self.width];
                let Err(b) = self.find(key) else {
                    unreachable!("keys are distinct")
                };
                self.buckets[b] = s as u32;
            }
        }
    }
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
    /// version)` — the counting engine's per-segment selection caches —
    /// use this to detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The weighted distinct-row form, or `None` when the dataset has more
    /// than `n_rows / 64` distinct rows (an empty or sub-64-row dataset
    /// has none).
    ///
    /// Built on first call by one pass over the rows that keys each row by
    /// its typed cells (one word per cell plus the missing flags; floats by
    /// bit pattern), allocates only per distinct row, and stops as soon as
    /// the cap is exceeded. The verdict either way is kept until
    /// [`Dataset::append_rows`], and clones share it. The build emits one
    /// `data.distinct_rows` span with `rows`, `distinct` (rows found; cap +
    /// 1 when the pass stopped early) and `eligible`.
    pub fn distinct_rows(&self) -> Option<&DistinctRows> {
        self.distinct
            .get_or_init(|| self.build_distinct_rows().map(Arc::new))
            .as_deref()
    }

    fn build_distinct_rows(&self) -> Option<DistinctRows> {
        let cap = self.n_rows / DISTINCT_ROW_DIVISOR;
        if cap == 0 {
            return None;
        }
        let span = so_obs::span("data.distinct_rows");
        // Keys are built a block of rows at a time, column by column, so
        // the per-cell type dispatch happens once per block.
        const BLOCK: usize = 256;
        let n_cols = self.columns.len();
        // At least one word, so a dataset without columns is one row.
        let width = (n_cols + n_cols.div_ceil(64)).max(1);
        let mut block = vec![0u64; BLOCK * width];
        let mut slots = RowSlots::new(width);
        let mut reps: Vec<usize> = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        let mut eligible = true;
        'rows: for start in (0..self.n_rows).step_by(BLOCK) {
            let rows = start..(start + BLOCK).min(self.n_rows);
            let keys = &mut block[..rows.len() * width];
            keys.fill(0);
            for (c, column) in self.columns.iter().enumerate() {
                column.data.key_words(rows.clone(), &mut keys[c..], width);
                for (r, &missing) in column.missing[rows.clone()].iter().enumerate() {
                    if missing {
                        keys[r * width + c] = 0;
                        keys[r * width + n_cols + c / 64] |= 1 << (c % 64);
                    }
                }
            }
            for (row, key) in rows.zip(keys.chunks_exact(width)) {
                match slots.find(key) {
                    Ok(slot) => weights[slot] += 1,
                    Err(_) if reps.len() == cap => {
                        eligible = false;
                        break 'rows;
                    }
                    Err(bucket) => {
                        slots.insert(bucket, key);
                        reps.push(row);
                        weights.push(1);
                    }
                }
            }
        }
        let distinct = reps.len() + usize::from(!eligible);
        if so_obs::enabled() {
            span.finish_with(&[
                ("rows", self.n_rows.to_string()),
                ("distinct", distinct.to_string()),
                ("eligible", eligible.to_string()),
            ]);
        }
        eligible.then(|| DistinctRows {
            rows: self.select_rows(&reps),
            weights,
        })
    }

    /// Appends rows in place — the mutation primitive behind a versioned
    /// dataset's open delta segment.
    ///
    /// Bumps [`Dataset::version`] and drops the distinct-row form. Clones
    /// taken before the append keep their own rows, version and form, so
    /// they are unaffected. Because the interner is shared and append-only-frozen,
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
        self.distinct = OnceLock::new();
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
                .map(|a| Column::with_capacity(a.dtype, 0))
                .collect(),
            n_rows: 0,
            version: 0,
            distinct: OnceLock::new(),
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
            distinct: OnceLock::new(),
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
        Self::with_capacity(schema, 0)
    }

    /// Starts an empty dataset over `schema` with room for `rows` rows, so
    /// a builder that knows its size allocates each column once instead of
    /// growing it by doubling (which leaves a fragmented heap behind).
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        Self::start(schema, Interner::new(), rows)
    }

    /// Starts from an existing interner (used when deriving datasets).
    pub fn from_parts(schema: Arc<Schema>, interner: Interner) -> Self {
        Self::start(schema, interner, 0)
    }

    fn start(schema: Arc<Schema>, mut interner: Interner, rows: usize) -> Self {
        // Index 0 is reserved as the placeholder for missing Str cells.
        interner.intern("");
        let columns = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.dtype, rows))
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
            distinct: OnceLock::new(),
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
    fn presized_builder_matches_a_growing_one() {
        let build = |mut b: DatasetBuilder| {
            let s = b.intern("x");
            for i in 0..100 {
                b.push_row(vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Str(s),
                    Value::Missing,
                ]);
            }
            b.finish()
        };
        let grown = build(DatasetBuilder::new(toy_schema()));
        let sized = build(DatasetBuilder::with_capacity(toy_schema(), 100));
        assert_eq!(sized.n_rows(), 100);
        for r in 0..100 {
            assert_eq!(sized.row_values(r), grown.row_values(r));
        }
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

    /// An Int/Float/Str dataset of `n` rows whose row `i` repeats pattern
    /// `i % k`; pattern 3 carries missing cells and pattern 1 a NaN.
    fn patterned(n: usize, k: usize) -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("a", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("x", DataType::Float, AttributeRole::QuasiIdentifier),
            AttributeDef::new("s", DataType::Str, AttributeRole::Sensitive),
        ]);
        let mut b = DatasetBuilder::new(schema);
        let syms = [b.intern("p"), b.intern("q")];
        for i in 0..n {
            let p = i % k;
            let x = match p {
                0 => 0.0,
                1 => f64::NAN,
                2 => -0.0,
                _ => p as f64,
            };
            if p == 3 {
                b.push_row(vec![Value::Missing, Value::Float(x), Value::Missing]);
            } else {
                b.push_row(vec![
                    Value::Int((p / 2) as i64),
                    Value::Float(x),
                    Value::Str(syms[p % 2]),
                ]);
            }
        }
        b.finish()
    }

    #[test]
    fn distinct_rows_weigh_each_representative_by_its_multiplicity() {
        let ds = patterned(1000, 9);
        let form = ds.distinct_rows().expect("9 distinct rows <= 1000 / 64");
        // +0.0 and -0.0 stay apart, as under Value's total order.
        assert_eq!(form.rows().n_rows(), 9);
        assert_eq!(form.weights().iter().sum::<u64>(), 1000);
        for (r, &w) in form.weights().iter().enumerate() {
            // Representatives come in first-occurrence order: row r of
            // the form is row r of the dataset.
            assert_eq!(form.rows().row_values(r), ds.row_values(r));
            let expect = (0..1000)
                .filter(|i| ds.row_values(*i) == ds.row_values(r))
                .count();
            assert_eq!(w, expect as u64, "representative {r}");
        }
        assert!(Arc::ptr_eq(ds.interner(), form.rows().interner()));
        // Built once; the second call returns the same form.
        assert!(std::ptr::eq(form, ds.distinct_rows().unwrap()));
    }

    #[test]
    fn distinct_rows_exist_only_at_or_below_n_over_64() {
        for n in [640usize, 700, 1000, 63 * 64 + 5] {
            let cap = n / 64;
            let at = patterned(n, cap);
            assert_eq!(
                at.distinct_rows().map(|f| f.rows().n_rows()),
                Some(cap),
                "n {n}"
            );
            assert!(patterned(n, cap + 1).distinct_rows().is_none(), "n {n}");
        }
        // Fewer than 64 rows (and no rows): no form.
        assert!(patterned(63, 1).distinct_rows().is_none());
        // No columns: every row is the same (empty) row.
        let mut b = DatasetBuilder::new(Schema::new(vec![]));
        for _ in 0..128 {
            b.push_row(vec![]);
        }
        assert_eq!(b.finish().distinct_rows().unwrap().weights(), &[128]);
        assert!(patterned(0, 1).distinct_rows().is_none());
        assert!(toy_dataset().distinct_rows().is_none());
    }

    #[test]
    fn a_missing_cell_is_not_its_placeholder() {
        // Missing Int cells store 0 and missing Str cells the "" symbol;
        // neither may merge with a real 0 or "".
        let schema = Schema::new(vec![
            AttributeDef::new("a", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("s", DataType::Str, AttributeRole::QuasiIdentifier),
        ]);
        let mut b = DatasetBuilder::new(schema);
        let empty = b.intern("");
        for i in 0..256 {
            b.push_row(match i % 4 {
                0 => vec![Value::Missing, Value::Str(empty)],
                1 => vec![Value::Int(0), Value::Str(empty)],
                2 => vec![Value::Int(0), Value::Missing],
                _ => vec![Value::Missing, Value::Missing],
            });
        }
        let ds = b.finish();
        assert_eq!(ds.distinct_rows().unwrap().weights(), &[64; 4]);
    }

    #[test]
    fn append_rows_drops_the_distinct_row_form() {
        let mut ds = patterned(128, 2);
        assert_eq!(ds.distinct_rows().unwrap().weights(), &[64, 64]);
        let clone = ds.clone();
        let p = ds.interner().get("p").unwrap();
        ds.append_rows(&[vec![Value::Int(7), Value::Float(1.5), Value::Str(p)]]);
        // 3 distinct rows > 129 / 64: the stale two-row form is gone.
        assert!(ds.distinct_rows().is_none());
        // The pre-append clone keeps its own form.
        assert_eq!(clone.distinct_rows().unwrap().weights(), &[64, 64]);
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
