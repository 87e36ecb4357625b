//! GraphViz DOT export.
//!
//! The paper's own pipeline renders diagrams with GraphViz (Appendix A.4,
//! reference 32); this exporter lets users with a GraphViz installation reproduce
//! that path. Tables become HTML-like labels with one port per row;
//! quantifier boxes become clusters (dashed for ∄, `peripheries=2` for ∀).

use queryvis_diagram::{Diagram, TableId};
use queryvis_layout::scene::{header_class, row_class};
use queryvis_layout::StyleClass;
use queryvis_logic::{Names, Quantifier};
use std::fmt::Write;

/// Escape text for GraphViz HTML-like labels. Quotes must be escaped too:
/// a literal `"` inside a label attribute would otherwise terminate the
/// attribute and produce malformed DOT.
fn html_escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn table_label(diagram: &Diagram, names: &Names, id: TableId) -> String {
    let table = &diagram.tables[id];
    let mut out =
        String::from(r#"<<table border="0" cellborder="1" cellspacing="0" cellpadding="4">"#);
    // Header and row styling resolve through the same style classes the
    // scene backends use, so the media cannot drift apart.
    let (bg, fg) = if header_class(table.is_select) == StyleClass::HeaderSelect {
        (crate::style::SELECT_HEADER_FILL, "black")
    } else {
        ("black", "white")
    };
    let _ = write!(
        out,
        r#"<tr><td bgcolor="{bg}"><font color="{fg}"><b>{}</b></font></td></tr>"#,
        html_escape(names.resolve(table.name))
    );
    for (i, row) in table.rows.iter().enumerate() {
        let bg = match crate::style::row_fill(row_class(&row.kind)) {
            Some(fill) => format!(r#" bgcolor="{fill}""#),
            None => String::new(),
        };
        let _ = write!(
            out,
            r#"<tr><td port="r{i}"{bg}>{}</td></tr>"#,
            html_escape(&row.display(names))
        );
    }
    out.push_str("</table>>");
    out
}

/// Export a diagram, whose names live in `names`, as a GraphViz `digraph`.
pub fn to_dot(diagram: &Diagram, names: &Names) -> String {
    let mut out = String::from("digraph queryvis {\n");
    out.push_str("  rankdir=LR;\n  node [shape=plaintext];\n");
    write_dot_body(&mut out, diagram, names, "");
    out.push_str("}\n");
    out
}

/// Export a multi-branch (UNION) query as one `digraph`: each branch in
/// its own labeled cluster, node ids prefixed so branches never collide.
/// Every branch's names live in `names`.
pub fn to_dot_union(diagrams: &[&Diagram], all: bool, names: &Names) -> String {
    if let [single] = diagrams {
        return to_dot(single, names);
    }
    let connective = if all { "UNION ALL" } else { "UNION" };
    let mut out = String::from("digraph queryvis {\n");
    out.push_str("  rankdir=LR;\n  node [shape=plaintext];\n");
    let _ = writeln!(out, "  label=\"{connective}\";\n  labelloc=t;");
    for (i, diagram) in diagrams.iter().enumerate() {
        let _ = writeln!(
            out,
            "  subgraph cluster_branch_{i} {{\n    label=\"branch {}\";",
            i + 1
        );
        write_dot_body(&mut out, diagram, names, &format!("b{i}_"));
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// The clusters, nodes, and edges of one diagram, with `prefix` applied to
/// every node id and cluster name.
fn write_dot_body(out: &mut String, diagram: &Diagram, names: &Names, prefix: &str) {
    // Boxed tables inside clusters.
    for (i, qbox) in diagram.boxes.iter().enumerate() {
        let style = match qbox.quantifier {
            Quantifier::NotExists => "style=dashed",
            Quantifier::ForAll => "peripheries=2",
            Quantifier::Exists => "style=invis",
        };
        let _ = writeln!(out, "  subgraph cluster_{prefix}{i} {{\n    {style};");
        for &tid in &qbox.tables {
            let _ = writeln!(
                out,
                "    {prefix}t{tid} [label={}];",
                table_label(diagram, names, tid)
            );
        }
        out.push_str("  }\n");
    }
    // Unboxed tables.
    for table in &diagram.tables {
        if diagram.box_of(table.id).is_none() {
            let _ = writeln!(
                out,
                "  {prefix}t{} [label={}];",
                table.id,
                table_label(diagram, names, table.id)
            );
        }
    }
    // Edges.
    for edge in &diagram.edges {
        let mut attrs = Vec::new();
        if !edge.directed {
            attrs.push("dir=none".to_string());
        }
        if let Some(op) = edge.label {
            attrs.push(format!("label=\"{}\"", op.as_str()));
        }
        let attr_str = if attrs.is_empty() {
            String::new()
        } else {
            format!(" [{}]", attrs.join(", "))
        };
        let _ = writeln!(
            out,
            "  {prefix}t{}:r{} -> {prefix}t{}:r{}{attr_str};",
            edge.from.table, edge.from.row, edge.to.table, edge.to.row
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_diagram::build_diagram;
    use queryvis_logic::{simplify, translate};
    use queryvis_sql::{parse_query, Names};

    fn dot(sql: &str, simplified: bool) -> String {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        let lt = translate(&query, None, &mut names).unwrap();
        let lt = if simplified { simplify(&lt) } else { lt };
        to_dot(&build_diagram(&lt), &names)
    }

    #[test]
    fn dot_has_clusters_for_boxes() {
        let s = dot(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
            false,
        );
        assert!(s.contains("subgraph cluster_0"));
        assert!(s.contains("style=dashed"));
        assert!(s.starts_with("digraph queryvis {"));
        assert!(s.trim_end().ends_with('}'));
    }

    #[test]
    fn forall_cluster_uses_double_periphery() {
        let s = dot(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT * FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
            true,
        );
        assert!(s.contains("peripheries=2"));
    }

    #[test]
    fn undirected_edges_marked_dir_none() {
        let s = dot("SELECT L.beer FROM Likes L", false);
        assert!(s.contains("dir=none"));
    }

    #[test]
    fn labels_escaped() {
        let s = dot("SELECT A.x FROM T A, T B WHERE A.x <> B.x", false);
        assert!(s.contains("label=\"<>\""));
    }

    /// A quote-bearing string literal lands in an HTML-like label cell; it
    /// must be escaped or the generated DOT is malformed.
    #[test]
    fn quotes_escaped_in_html_labels() {
        let s = dot(
            r#"SELECT B.bid FROM Boat B WHERE B.name = 'the "Maria"'"#,
            false,
        );
        assert!(s.contains("&quot;Maria&quot;"), "{s}");
        assert!(!s.contains(r#">name = 'the "Maria"'<"#));
    }
}
