//! The one table renderer: every result table of [`crate::experiments`] is a
//! title plus a list of [`Column`]s over its rows.

/// One column of a result table: its header, its width and alignment, and
/// how a row's cell is formatted.
pub(crate) struct Column<'a, R> {
    header: String,
    width: usize,
    left: bool,
    cell: Box<dyn Fn(&R) -> String + 'a>,
}

impl<'a, R> Column<'a, R> {
    /// A left-aligned column, padded to `width`.
    pub(crate) fn left(
        header: impl Into<String>,
        width: usize,
        cell: impl Fn(&R) -> String + 'a,
    ) -> Self {
        Self {
            header: header.into(),
            width,
            left: true,
            cell: Box::new(cell),
        }
    }

    /// A right-aligned column, padded to `width`.
    pub(crate) fn right(
        header: impl Into<String>,
        width: usize,
        cell: impl Fn(&R) -> String + 'a,
    ) -> Self {
        Self {
            left: false,
            ..Self::left(header, width, cell)
        }
    }

    fn pad(&self, text: &str, out: &mut String) {
        let width = self.width;
        if self.left {
            out.push_str(&format!("{text:<width$}"));
        } else {
            out.push_str(&format!("{text:>width$}"));
        }
    }
}

/// Renders `title` (skipped when empty), the header line and one line per
/// row.  Cells wider than their column push the line out rather than being
/// cut, as `format!` padding does.
pub(crate) fn render<'r, R: 'r>(
    title: &str,
    columns: &[Column<'_, R>],
    rows: impl IntoIterator<Item = &'r R>,
) -> String {
    let mut out = String::new();
    if !title.is_empty() {
        out.push_str(title);
        out.push('\n');
    }
    for c in columns {
        c.pad(&c.header, &mut out);
    }
    out.push('\n');
    for r in rows {
        for c in columns {
            c.pad(&(c.cell)(r), &mut out);
        }
        out.push('\n');
    }
    out
}
