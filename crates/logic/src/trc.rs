//! Tuple relational calculus rendering of a logic tree (paper Fig. 9).
//!
//! The LT *is* the TRC expression with nesting made explicit as a tree; this
//! module renders it back in the familiar set-builder notation, e.g. for the
//! unique-set query:
//!
//! ```text
//! {Q(L1.drinker) | ∃ L1 ∈ Likes [
//!   ∄ L2 ∈ Likes [(L1.drinker <> L2.drinker) ∧ ...]]}
//! ```

use crate::lt::{LogicTree, NodeId};
use queryvis_ir::Names;
use std::fmt::Write;

/// Render the logic tree, whose names live in `names`, as a
/// (pretty-printed, multi-line) TRC expression.
pub fn to_trc(tree: &LogicTree, names: &Names) -> String {
    let mut out = String::new();
    out.push_str("{Q(");
    for (i, attr) in tree.select.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", names.show(attr));
    }
    out.push_str(") | ");
    render_node(tree, names, 0, 1, &mut out);
    out.push('}');
    out
}

fn indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn render_node(tree: &LogicTree, names: &Names, id: NodeId, level: usize, out: &mut String) {
    let node = tree.node(id);
    // Quantifier binder: `∃ L1 ∈ Likes, L2 ∈ Serves`.
    let quant = if node.is_root() {
        "\u{2203}".to_string()
    } else {
        node.quantifier.symbol().to_string()
    };
    let binders: Vec<String> = node
        .tables
        .iter()
        .map(|t| format!("{} \u{2208} {}", names.show(&t.alias), names.show(&t.table)))
        .collect();
    out.push_str(&quant);
    out.push(' ');
    out.push_str(&binders.join(", "));
    out.push_str(" [");
    let mut first = true;
    for pred in &node.predicates {
        if !first {
            out.push_str(" \u{2227}"); // ∧
        }
        indent(out, level);
        let _ = write!(out, "{}", names.show(pred));
        first = false;
    }
    for &child in &node.children {
        if !first {
            out.push_str(" \u{2227}");
        }
        indent(out, level);
        render_node(tree, names, child, level + 1, out);
        first = false;
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use queryvis_sql::{parse_query, Names};

    #[test]
    fn trc_of_qonly() {
        let mut names = Names::new();
        let q = parse_query(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
            &mut names,
        )
        .unwrap();
        let tree = translate(&q, None, &mut names).unwrap();
        let trc = to_trc(&tree, &names);
        assert!(trc.starts_with("{Q(F.person) | \u{2203} F \u{2208} Frequents ["));
        assert!(trc.contains("\u{2204} S \u{2208} Serves ["));
        assert!(trc.contains("(S.bar = F.bar)"));
        assert!(trc.contains("\u{2227}")); // conjunction symbol present
        assert!(trc.ends_with('}'));
    }

    #[test]
    fn trc_balanced_brackets() {
        let mut names = Names::new();
        let q = parse_query(
            "SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
             SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker AND NOT EXISTS( \
             SELECT * FROM Likes L3 WHERE L3.drinker = L2.drinker))",
            &mut names,
        )
        .unwrap();
        let trc = to_trc(&translate(&q, None, &mut names).unwrap(), &names);
        let opens = trc.matches('[').count();
        let closes = trc.matches(']').count();
        assert_eq!(opens, closes);
        assert_eq!(opens, 3);
    }

    #[test]
    fn trc_multi_table_block() {
        let mut names = Names::new();
        let q = parse_query(
            "SELECT A.ArtistId FROM Artist A WHERE NOT EXISTS \
             (SELECT * FROM Album AL, Track T WHERE A.ArtistId = AL.ArtistId \
              AND AL.AlbumId = T.AlbumId AND T.Composer = A.Name)",
            &mut names,
        )
        .unwrap();
        let trc = to_trc(&translate(&q, None, &mut names).unwrap(), &names);
        assert!(trc.contains("AL \u{2208} Album, T \u{2208} Track"));
    }
}
