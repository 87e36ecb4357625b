//! The database schemas used throughout the paper.

use queryvis_sql::{Schema, Table};

/// The beer-drinkers schema of Ullman \[78\] (paper §1.1):
/// `Likes(drinker, beer)`, `Frequents(drinker, bar)`, `Serves(bar, beer)`.
///
/// Different figures of the paper use `person`/`drinker` and
/// `drink`/`beer` interchangeably; the superset is included so that every
/// figure's SQL validates unchanged.
pub fn beers_schema() -> Schema {
    Schema::new("beers")
        .with_table(Table::new("Likes", &["drinker", "person", "beer", "drink"]))
        .with_table(Table::new("Frequents", &["drinker", "person", "bar"]))
        .with_table(Table::new("Serves", &["bar", "beer", "drink"]))
}

/// The sailors schema of Fig. 22a (Ramakrishnan & Gehrke \[65\]):
/// `Sailor(sid, sname, rating, age)`, `Reserves(sid, bid, day)`,
/// `Boat(bid, bname, color)`.
pub fn sailors_schema() -> Schema {
    Schema::new("sailors")
        .with_table(Table::new("Sailor", &["sid", "sname", "rating", "age"]))
        .with_table(Table::new("Reserves", &["sid", "bid", "day"]))
        .with_table(Table::new("Boat", &["bid", "bname", "color"]))
}

/// The students schema of Fig. 22b. Appendix G's SQL names the course
/// table `Class`; Fig. 22 names it `Course` — both are provided.
pub fn students_schema() -> Schema {
    Schema::new("students")
        .with_table(Table::new("Student", &["sid", "sname"]))
        .with_table(Table::new("Takes", &["sid", "cid", "semester"]))
        .with_table(Table::new("Course", &["cid", "cname", "department"]))
        .with_table(Table::new("Class", &["cid", "cname", "department"]))
}

/// The actors schema of Fig. 22c. Appendix G's SQL names the cast table
/// `Casts`; Fig. 22 names it `Plays` — both are provided.
pub fn actors_schema() -> Schema {
    Schema::new("actors")
        .with_table(Table::new("Actor", &["aid", "aname"]))
        .with_table(Table::new("Plays", &["aid", "mid", "role"]))
        .with_table(Table::new("Casts", &["aid", "mid", "role"]))
        .with_table(Table::new("Movie", &["mid", "mname", "director"]))
}

/// The Chinook digital-media-store schema \[20\] used for all study and
/// qualification questions (tutorial page 2).
pub fn chinook_schema() -> Schema {
    Schema::new("chinook")
        .with_table(Table::new("Artist", &["ArtistId", "Name"]))
        .with_table(Table::new("Album", &["AlbumId", "Title", "ArtistId"]))
        .with_table(Table::new(
            "Track",
            &[
                "TrackId",
                "Name",
                "AlbumId",
                "MediaTypeId",
                "GenreId",
                "Composer",
                "Milliseconds",
                "Bytes",
                "UnitPrice",
            ],
        ))
        .with_table(Table::new(
            "Employee",
            &[
                "EmployeeId",
                "LastName",
                "FirstName",
                "Title",
                "ReportsTo",
                "BirthDate",
                "HireDate",
                "Address",
                "City",
                "State",
                "Country",
                "PostalCode",
                "Phone",
                "Fax",
                "Email",
            ],
        ))
        .with_table(Table::new(
            "Customer",
            &[
                "CustomerId",
                "FirstName",
                "LastName",
                "Company",
                "Address",
                "City",
                "State",
                "Country",
                "PostalCode",
                "Phone",
                "Fax",
                "Email",
                "SupportRepId",
            ],
        ))
        .with_table(Table::new("MediaType", &["MediaTypeId", "Name"]))
        .with_table(Table::new("Genre", &["GenreId", "Name"]))
        .with_table(Table::new(
            "Invoice",
            &[
                "InvoiceId",
                "CustomerId",
                "InvoiceDate",
                "BillingAddress",
                "BillingCity",
                "BillingState",
                "BillingCountry",
                "BillingPostalCode",
                "Total",
            ],
        ))
        .with_table(Table::new(
            "InvoiceLine",
            &[
                "InvoiceLineId",
                "InvoiceId",
                "TrackId",
                "UnitPrice",
                "Quantity",
            ],
        ))
        .with_table(Table::new("Playlist", &["PlaylistId", "Name"]))
        .with_table(Table::new("PlaylistTrack", &["PlaylistId", "TrackId"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chinook_has_eleven_tables() {
        assert_eq!(chinook_schema().tables.len(), 11);
    }

    #[test]
    fn lookups_are_case_insensitive() {
        let s = chinook_schema();
        assert!(s.table("track").is_some());
        assert!(s.table("TRACK").unwrap().has_column("milliseconds"));
    }

    #[test]
    fn all_schemas_have_unique_table_names() {
        for schema in [
            beers_schema(),
            sailors_schema(),
            students_schema(),
            actors_schema(),
            chinook_schema(),
        ] {
            let mut names: Vec<&str> = schema.tables.iter().map(|t| t.name.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(before, names.len(), "duplicates in {}", schema.name);
        }
    }
}
