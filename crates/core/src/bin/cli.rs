//! `queryvis` — command-line diagram generator.
//!
//! ```text
//! queryvis [OPTIONS] [SQL]
//!
//! Reads SQL from the argument (or stdin if omitted) and prints the
//! QueryVis rendering.
//!
//! OPTIONS:
//!   --format <svg|dot|ascii|reading|trc|lt|pattern|stats>   (default: ascii)
//!   --schema <beers|sailors|students|actors|chinook>        validate against
//!                                                           a built-in schema
//!   --no-simplify        keep nested NOT-EXISTS boxes (skip the ∀ rewrite)
//!   --strict             reject degenerate queries (Properties 5.1/5.2)
//!   -o, --output <file>  write to a file instead of stdout
//! ```
//!
//! Examples:
//!
//! ```text
//! queryvis "SELECT L.drinker FROM Likes L WHERE L.beer = 'IPA'"
//! echo "SELECT ..." | queryvis --format svg -o query.svg
//! queryvis --schema chinook --format reading "SELECT A.Name FROM Artist A ..."
//! ```

use queryvis::corpus::{
    actors_schema, beers_schema, chinook_schema, sailors_schema, students_schema,
};
use queryvis::{QueryVis, QueryVisOptions};
use std::io::Read;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: queryvis [--format svg|dot|ascii|reading|trc|lt|pattern|stats] \
         [--schema beers|sailors|students|actors|chinook] [--no-simplify] [--strict] \
         [-o FILE] [SQL]\n\nReads SQL from the argument or stdin."
    );
    exit(2);
}

fn main() {
    let mut format = "ascii".to_string();
    let mut schema_name: Option<String> = None;
    let mut no_simplify = false;
    let mut strict = false;
    let mut output: Option<String> = None;
    let mut sql: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" | "-f" => format = args.next().unwrap_or_else(|| usage()),
            "--schema" | "-s" => schema_name = Some(args.next().unwrap_or_else(|| usage())),
            "--no-simplify" => no_simplify = true,
            "--strict" => strict = true,
            "--output" | "-o" => output = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            other => sql = Some(other.to_string()),
        }
    }

    let sql = sql.unwrap_or_else(|| {
        let mut buffer = String::new();
        if std::io::stdin().read_to_string(&mut buffer).is_err() || buffer.trim().is_empty() {
            usage();
        }
        buffer
    });

    let schema = schema_name.as_deref().map(|name| match name {
        "beers" => beers_schema(),
        "sailors" => sailors_schema(),
        "students" => students_schema(),
        "actors" => actors_schema(),
        "chinook" => chinook_schema(),
        other => {
            eprintln!("unknown schema `{other}` (try beers, sailors, students, actors, chinook)");
            exit(2);
        }
    });

    let qv = match QueryVis::with_options(
        &sql,
        QueryVisOptions {
            schema,
            strict,
            no_simplify,
        },
    ) {
        Ok(qv) => qv,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };

    let rendered = match format.as_str() {
        "svg" => qv.svg(),
        "dot" => qv.dot(),
        "ascii" => qv.ascii(),
        "reading" => format!("{}\n", qv.reading()),
        "trc" => format!("{}\n", qv.trc()),
        "lt" => format!(
            "{}",
            if no_simplify {
                &qv.logic_tree
            } else {
                &qv.simplified
            }
        ),
        "pattern" => format!("{}\n", qv.pattern()),
        "stats" => {
            let s = qv.stats();
            format!(
                "tables={} rows={} edges={} boxes={} arrowheads={} labels={} \
                 visual_elements={}\n",
                s.tables,
                s.rows,
                s.edges,
                s.boxes,
                s.arrowheads,
                s.labels,
                s.visual_elements()
            )
        }
        other => {
            eprintln!("unknown format `{other}`");
            usage();
        }
    };

    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("error writing {path}: {e}");
                exit(1);
            }
        }
        None => print!("{rendered}"),
    }
}
