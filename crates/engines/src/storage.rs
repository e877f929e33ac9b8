//! Simulated base-table storage: the cost shadow of each TPC-H table.
//!
//! Values live host-side (in the generated [`TpchData`]); every scan
//! charges touches against mapped simulated memory with the layout's
//! true stride. A row store reads a cell from inside a wide tuple — the
//! whole cache line around it moves — while a column store reads from a
//! dense array of just that column. That difference is the layout term
//! of the engine profiles.

use crate::error::EngineError;
use crate::profiles::Layout;
use nqp_datagen::tpch::TpchData;
use nqp_sim::{Access, NumaSim, VAddr, Worker};
use nqp_storage::SimHeap;

/// The eight TPC-H tables, in schema order. A plan names its tables
/// with this enum, so a table lookup is an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `region`
    Region,
    /// `nation`
    Nation,
    /// `supplier`
    Supplier,
    /// `customer`
    Customer,
    /// `part`
    Part,
    /// `partsupp`
    PartSupp,
    /// `orders`
    Orders,
    /// `lineitem`
    Lineitem,
}

impl Table {
    /// All eight, in schema order.
    pub const ALL: [Table; 8] = [
        Table::Region,
        Table::Nation,
        Table::Supplier,
        Table::Customer,
        Table::Part,
        Table::PartSupp,
        Table::Orders,
        Table::Lineitem,
    ];

    /// The SQL table name.
    pub fn name(self) -> &'static str {
        SCHEMAS[self as usize].0
    }

    fn schema(self) -> &'static [(&'static str, u64)] {
        SCHEMAS[self as usize].1
    }

    fn rows(self, data: &TpchData) -> usize {
        match self {
            Table::Region => data.region.r_regionkey.len(),
            Table::Nation => data.nation.n_nationkey.len(),
            Table::Supplier => data.supplier.s_suppkey.len(),
            Table::Customer => data.customer.c_custkey.len(),
            Table::Part => data.part.p_partkey.len(),
            Table::PartSupp => data.partsupp.ps_partkey.len(),
            Table::Orders => data.orders.o_orderkey.len(),
            Table::Lineitem => data.lineitem.l_orderkey.len(),
        }
    }
}

/// `(column name, width in bytes)` per table, in [`Table`] order and
/// schema order. Strings are shadowed at 16 bytes (pointer +
/// length/prefix), dates at 4, integers and decimals at 8.
const SCHEMAS: [(&str, &[(&str, u64)]); 8] = [
    ("region", &[("r_regionkey", 8), ("r_name", 16), ("r_comment", 16)]),
    (
        "nation",
        &[("n_nationkey", 8), ("n_name", 16), ("n_regionkey", 8), ("n_comment", 16)],
    ),
    (
        "supplier",
        &[
            ("s_suppkey", 8),
            ("s_name", 16),
            ("s_address", 16),
            ("s_nationkey", 8),
            ("s_phone", 16),
            ("s_acctbal", 8),
            ("s_comment", 16),
        ],
    ),
    (
        "customer",
        &[
            ("c_custkey", 8),
            ("c_name", 16),
            ("c_address", 16),
            ("c_nationkey", 8),
            ("c_phone", 16),
            ("c_acctbal", 8),
            ("c_mktsegment", 16),
            ("c_comment", 16),
        ],
    ),
    (
        "part",
        &[
            ("p_partkey", 8),
            ("p_name", 16),
            ("p_mfgr", 16),
            ("p_brand", 16),
            ("p_type", 16),
            ("p_size", 8),
            ("p_container", 16),
            ("p_retailprice", 8),
            ("p_comment", 16),
        ],
    ),
    (
        "partsupp",
        &[
            ("ps_partkey", 8),
            ("ps_suppkey", 8),
            ("ps_availqty", 8),
            ("ps_supplycost", 8),
            ("ps_comment", 16),
        ],
    ),
    (
        "orders",
        &[
            ("o_orderkey", 8),
            ("o_custkey", 8),
            ("o_orderstatus", 16),
            ("o_totalprice", 8),
            ("o_orderdate", 4),
            ("o_orderpriority", 16),
            ("o_clerk", 16),
            ("o_shippriority", 8),
            ("o_comment", 16),
        ],
    ),
    (
        "lineitem",
        &[
            ("l_orderkey", 8),
            ("l_partkey", 8),
            ("l_suppkey", 8),
            ("l_linenumber", 8),
            ("l_quantity", 8),
            ("l_extendedprice", 8),
            ("l_discount", 8),
            ("l_tax", 8),
            ("l_returnflag", 16),
            ("l_linestatus", 16),
            ("l_shipdate", 4),
            ("l_commitdate", 4),
            ("l_receiptdate", 4),
            ("l_shipinstruct", 16),
            ("l_shipmode", 16),
            ("l_comment", 16),
        ],
    ),
];

/// A resolved column handle: where cell `row` of one column lives in
/// simulated memory. Covers both layouts — a column store has
/// `stride == width`, a row store has `base = tuple base + offset` and
/// `stride = tuple width` — so reading a cell costs no name lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Col {
    base: VAddr,
    stride: u64,
    width: u64,
}

impl Col {
    /// Charge the cost of reading this column of `row`.
    #[inline]
    pub fn charge(self, w: &mut Worker<'_>, row: usize) {
        self.touch(w, row, Access::Read);
    }

    #[inline]
    fn touch(self, w: &mut Worker<'_>, row: usize, access: Access) {
        w.touch(self.base + row as u64 * self.stride, self.width, access);
    }
}

/// The storage shadow of one table.
#[derive(Debug)]
pub struct TableShadow {
    table: Table,
    nrows: usize,
    /// Row layout: `(tuple base, tuple width)`. Column layout: `None`.
    tuples: Option<(VAddr, u64)>,
    /// Every column's handle, in schema order.
    cols: Vec<(&'static str, Col)>,
}

impl TableShadow {
    /// Resolve `name` to a column handle, once per plan.
    pub fn col(&self, name: &str) -> Result<Col, EngineError> {
        self.cols
            .iter()
            .find(|&&(c, _)| c == name)
            .map(|&(_, col)| col)
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.table.name(),
                column: name.to_string(),
            })
    }

    /// Resolve several columns at once, in order.
    pub fn cols<const N: usize>(&self, names: [&str; N]) -> Result<[Col; N], EngineError> {
        let mut out = [Col::default(); N];
        for (slot, name) in out.iter_mut().zip(names) {
            *slot = self.col(name)?;
        }
        Ok(out)
    }

    /// Rows in the table.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The contiguous row range thread `tid` of `threads` scans.
    pub fn partition(&self, tid: usize, threads: usize) -> std::ops::Range<usize> {
        let per = self.nrows.div_ceil(threads.max(1));
        let start = (tid * per).min(self.nrows);
        let end = ((tid + 1) * per).min(self.nrows);
        start..end
    }
}

/// The loaded database: host values + per-table cost shadows.
pub struct TpchDb {
    /// The generated data (exact values for query evaluation).
    pub data: TpchData,
    /// One shadow per [`Table`], indexed by it.
    tables: Vec<TableShadow>,
}

impl TpchDb {
    /// Map the storage shadows and fault them in with a partitioned
    /// parallel load (first touch spreads each table across the loading
    /// workers, as a parallel COPY would).
    pub fn load(
        sim: &mut NumaSim,
        _heap: &mut SimHeap,
        data: &TpchData,
        layout: Layout,
        threads: usize,
    ) -> Result<Self, EngineError> {
        let mut tables = Vec::with_capacity(Table::ALL.len());
        for table in Table::ALL {
            let schema = table.schema();
            let nrows = table.rows(data);
            let shadow = match layout {
                Layout::Row => {
                    // Row stores read tuples through a shared buffer
                    // pool whose pages are faulted by whichever backend
                    // needs them first — placement is spread, not
                    // loader-local (unlike a column store's mmapped
                    // column files).
                    let row_bytes: u64 = schema.iter().map(|&(_, wd)| wd).sum();
                    let mut base = 0;
                    sim.try_serial(&mut base, |w, base| {
                        *base = w.map_pages_shared((nrows as u64 * row_bytes).max(1));
                    })?;
                    let mut off = 0;
                    let cols = schema
                        .iter()
                        .map(|&(cname, width)| {
                            let col = Col { base: base + off, stride: row_bytes, width };
                            off += width;
                            (cname, col)
                        })
                        .collect();
                    TableShadow { table, nrows, tuples: Some((base, row_bytes)), cols }
                }
                Layout::Column => {
                    let mut cols = Vec::with_capacity(schema.len());
                    for &(cname, width) in schema {
                        let mut base = 0;
                        sim.try_serial(&mut base, |w, base| {
                            *base = w.map_pages((nrows as u64 * width).max(1));
                        })?;
                        cols.push((cname, Col { base, stride: width, width }));
                    }
                    TableShadow { table, nrows, tuples: None, cols }
                }
            };
            tables.push(shadow);
        }
        let db = TpchDb { data: data.clone(), tables };
        // Fault everything in, partitioned across the workers. Each
        // worker writes only its own contiguous row range, so the load
        // shards across host threads (`SimConfig::shards`) with
        // deterministic epoch merges — byte-identical at any shard
        // count, same as the W1–W4 relation loaders.
        for shadow in &db.tables {
            sim.try_parallel_sharded(threads, shadow, |w, shadow| {
                for row in shadow.partition(w.tid(), threads) {
                    match shadow.tuples {
                        Some((base, bytes)) => {
                            w.touch(base + row as u64 * bytes, bytes, Access::Write);
                        }
                        None => {
                            for &(_, col) in &shadow.cols {
                                col.touch(w, row, Access::Write);
                            }
                        }
                    }
                }
            })?;
        }
        Ok(db)
    }

    /// The shadow of `table`.
    pub fn table(&self, table: Table) -> &TableShadow {
        &self.tables[table as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_alloc::AllocatorKind;
    use nqp_sim::SimConfig;
    use nqp_topology::machines;

    fn setup(layout: Layout) -> (NumaSim, TpchDb) {
        let mut sim = NumaSim::new(
            SimConfig::tuned(machines::machine_b()),
        );
        let mut heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim);
        let data = TpchData::generate(0.001, 3);
        let db = TpchDb::load(&mut sim, &mut heap, &data, layout, 4).expect("load");
        (sim, db)
    }

    #[test]
    fn all_eight_tables_load() {
        let (_, db) = setup(Layout::Column);
        for table in Table::ALL {
            assert!(db.table(table).nrows() > 0, "{} empty", table.name());
        }
        assert_eq!(db.table(Table::Region).nrows(), 5);
        assert_eq!(db.table(Table::Nation).nrows(), 25);
    }

    #[test]
    fn row_scans_cost_more_than_column_scans() {
        let cost = |layout| {
            let (mut sim, db) = setup(layout);
            let before = sim.now_cycles();
            sim.serial(&mut (), |w, _| {
                let li = db.table(Table::Lineitem);
                let ship = li.col("l_shipdate").expect("known column");
                for row in 0..li.nrows() {
                    ship.charge(w, row);
                }
            });
            sim.now_cycles() - before
        };
        let row = cost(Layout::Row);
        let col = cost(Layout::Column);
        assert!(
            row > 2 * col,
            "row-store scan ({row}) should dwarf column scan ({col})"
        );
    }

    #[test]
    fn unknown_columns_are_typed_plan_time_errors() {
        for layout in [Layout::Column, Layout::Row] {
            let (_, db) = setup(layout);
            let err = db.table(Table::Orders).col("nope").expect_err("no such column");
            assert_eq!(
                err,
                EngineError::UnknownColumn { table: "orders", column: "nope".into() }
            );
            assert!(err.to_string().contains("orders.nope"));
            assert!(db.table(Table::Lineitem).cols(["l_tax", "o_orderkey"]).is_err());
        }
    }

    #[test]
    fn handles_address_the_old_layout_formulas() {
        // Column store: one dense array per column (stride = width).
        // Row store: every column inside one tuple array (stride = the
        // tuple width, base = tuple base + the column's offset).
        let (_, col_db) = setup(Layout::Column);
        let c = col_db.table(Table::Orders).col("o_orderdate").expect("known");
        assert_eq!((c.stride, c.width), (4, 4));
        let (_, row_db) = setup(Layout::Row);
        let t = row_db.table(Table::Orders);
        let (base, row_bytes) = t.tuples.expect("row layout has tuples");
        let offset: u64 = [8, 8, 16, 8].iter().sum(); // columns before o_orderdate
        let r = t.col("o_orderdate").expect("known");
        assert_eq!(r, Col { base: base + offset, stride: row_bytes, width: 4 });
        let [key, comment] = t.cols(["o_orderkey", "o_comment"]).expect("known");
        assert_eq!(key.base, base);
        assert_eq!(comment.base + comment.width, base + row_bytes);
    }

    #[test]
    fn partitions_tile_rows() {
        let (_, db) = setup(Layout::Column);
        let li = db.table(Table::Lineitem);
        let mut total = 0;
        for tid in 0..5 {
            total += li.partition(tid, 5).len();
        }
        assert_eq!(total, li.nrows());
    }
}
