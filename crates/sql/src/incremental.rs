//! Byte-range edits for live-editing sessions.
//!
//! A session holds a source buffer server-side; the client sends edits
//! ([`Edit`]) instead of whole texts, and [`apply_edit`] replays each one
//! onto the buffer. The edited text is then served like any other request
//! text, so nothing here knows about tokens or parsing.

/// One byte-range edit against a source buffer: replace
/// `source[offset .. offset + deleted]` with `inserted`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Byte offset of the replaced range.
    pub offset: usize,
    /// Bytes removed at `offset`.
    pub deleted: usize,
    /// Replacement text inserted at `offset`.
    pub inserted: String,
}

impl Edit {
    /// An insertion (no bytes removed).
    pub fn insert(offset: usize, inserted: impl Into<String>) -> Edit {
        Edit {
            offset,
            deleted: 0,
            inserted: inserted.into(),
        }
    }

    /// A deletion (no replacement text).
    pub fn delete(offset: usize, deleted: usize) -> Edit {
        Edit {
            offset,
            deleted,
            inserted: String::new(),
        }
    }
}

/// Apply an edit to a source buffer, validating bounds and UTF-8
/// boundaries. On error the buffer is unchanged and the message is
/// suitable for a `bad_request` response.
pub fn apply_edit(source: &mut String, edit: &Edit) -> Result<(), String> {
    let end = edit.offset.checked_add(edit.deleted).ok_or_else(|| {
        format!(
            "edit range overflows: offset {} + deleted {}",
            edit.offset, edit.deleted
        )
    })?;
    if end > source.len() {
        return Err(format!(
            "edit range {}..{} exceeds source length {}",
            edit.offset,
            end,
            source.len()
        ));
    }
    if !source.is_char_boundary(edit.offset) || !source.is_char_boundary(end) {
        return Err(format!(
            "edit range {}..{} splits a UTF-8 character",
            edit.offset, end
        ));
    }
    source.replace_range(edit.offset..end, &edit.inserted);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_edit_validates_bounds_and_boundaries() {
        let mut s = "héllo".to_string();
        assert!(apply_edit(&mut s, &Edit::insert(99, "x")).is_err());
        assert!(apply_edit(&mut s, &Edit::delete(1, 1)).is_err(), "mid-é");
        assert!(apply_edit(&mut s, &Edit::delete(1, 2)).is_ok());
        assert_eq!(s, "hllo");
    }
}
