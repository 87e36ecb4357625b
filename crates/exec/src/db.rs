//! In-memory tables: the executor's data model.

use crate::datum::Datum;
use queryvis_sql::Symbol;
use std::collections::HashMap;

/// A base table: named columns over rows of [`Datum`]s.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub columns: Vec<Symbol>,
    pub rows: Vec<Vec<Datum>>,
}

impl Table {
    pub fn col(&self, name: Symbol) -> Option<usize> {
        self.columns.iter().position(|&c| c == name)
    }
}

/// A database: base tables by (case-sensitive) name, exactly as the query
/// spells them. Table and column names are symbols of the one query's
/// name table the database was generated for.
#[derive(Debug, Clone, Default)]
pub struct Database {
    pub tables: HashMap<Symbol, Table>,
}

impl Database {
    pub fn table(&self, name: Symbol) -> Option<&Table> {
        self.tables.get(&name)
    }

    /// Total row count across tables (reports and sanity checks).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }
}
