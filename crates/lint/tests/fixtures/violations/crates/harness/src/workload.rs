//! Fixture axis: a complete `DsKind`.

pub enum DsKind {
    ListLf,
    Tree,
}

impl DsKind {
    pub const ALL: [DsKind; 2] = [DsKind::ListLf, DsKind::Tree];

    pub fn name(self) -> &'static str {
        match self {
            DsKind::ListLf => "HList",
            DsKind::Tree => "NMTree",
        }
    }

    pub fn parse(s: &str) -> Option<DsKind> {
        Some(match s {
            "listlf" => DsKind::ListLf,
            "tree" => DsKind::Tree,
            _ => return None,
        })
    }
}
