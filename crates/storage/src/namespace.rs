//! Virtual path handling.
//!
//! Every path a client names — over any protocol — is parsed into a
//! [`VPath`]: an absolute, normalized path inside NeST's virtual root. This
//! is the first half of the storage manager's namespace virtualization; the
//! second half is the backend mapping in [`crate::backend`].

use std::fmt;

/// Errors from virtual path parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path tried to escape the virtual root via `..`.
    Escapes,
    /// A component contained a NUL or other forbidden byte.
    BadComponent(String),
    /// The path was empty.
    Empty,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Escapes => write!(f, "path escapes the virtual root"),
            PathError::BadComponent(c) => write!(f, "invalid path component {:?}", c),
            PathError::Empty => write!(f, "empty path"),
        }
    }
}

impl std::error::Error for PathError {}

/// An absolute, normalized virtual path.
///
/// ```
/// use nest_storage::VPath;
///
/// let p = VPath::parse("/data//./staging/../input.dat").unwrap();
/// assert_eq!(p.to_string(), "/data/input.dat");
/// // Escapes are rejected, not clamped:
/// assert!(VPath::parse("/../etc/passwd").is_err());
/// ```
///
/// Invariants (maintained by construction, relied on by every backend):
/// * always begins at the virtual root (`/`);
/// * contains no `.` or `..` components, no empty components, and no NUL
///   bytes;
/// * `..` that would climb above the root is rejected, not clamped, so a
///   client probing with `../../etc/passwd` receives an error rather than
///   silently reading `/etc/passwd` relative to the root.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VPath {
    /// Normalized components, root-relative.
    components: Vec<String>,
}

impl VPath {
    /// The virtual root `/`.
    pub fn root() -> Self {
        VPath {
            components: Vec::new(),
        }
    }

    /// Parses and normalizes a client-supplied path. Relative paths are
    /// interpreted from the root (protocols present working-directory
    /// resolution themselves before reaching the storage manager).
    pub fn parse(raw: &str) -> Result<Self, PathError> {
        if raw.is_empty() {
            return Err(PathError::Empty);
        }
        let mut components: Vec<String> = Vec::new();
        for comp in raw.split('/') {
            match comp {
                "" | "." => continue,
                ".." => {
                    if components.pop().is_none() {
                        return Err(PathError::Escapes);
                    }
                }
                c => {
                    // NUL ends a host path; CR/LF would split a line of
                    // the persisted lot table.
                    if c.bytes().any(|b| matches!(b, 0 | b'\n' | b'\r')) {
                        return Err(PathError::BadComponent(c.to_owned()));
                    }
                    components.push(c.to_owned());
                }
            }
        }
        Ok(VPath { components })
    }

    /// Resolves a possibly-relative path against this directory.
    pub fn join(&self, raw: &str) -> Result<Self, PathError> {
        if raw.starts_with('/') {
            return VPath::parse(raw);
        }
        let mut combined = String::new();
        for c in &self.components {
            combined.push('/');
            combined.push_str(c);
        }
        combined.push('/');
        combined.push_str(raw);
        VPath::parse(&combined)
    }

    /// The final component, or `None` for the root.
    pub fn file_name(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// The parent directory, or `None` for the root.
    pub fn parent(&self) -> Option<VPath> {
        if self.components.is_empty() {
            None
        } else {
            Some(VPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// True if this is the virtual root.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// The normalized components.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Depth below the root.
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// True if `self` equals `ancestor` or lies beneath it.
    pub fn starts_with(&self, ancestor: &VPath) -> bool {
        self.components.len() >= ancestor.components.len()
            && self.components[..ancestor.components.len()] == ancestor.components[..]
    }
}

impl fmt::Display for VPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "/");
        }
        for c in &self.components {
            write!(f, "/{}", c)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for VPath {
    type Err = PathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_normalizes() {
        assert_eq!(VPath::parse("/a/b/c").unwrap().to_string(), "/a/b/c");
        assert_eq!(VPath::parse("a//b/./c").unwrap().to_string(), "/a/b/c");
        assert_eq!(VPath::parse("/a/b/../c").unwrap().to_string(), "/a/c");
        assert_eq!(VPath::parse("/").unwrap().to_string(), "/");
    }

    #[test]
    fn escape_attempts_rejected() {
        assert_eq!(VPath::parse(".."), Err(PathError::Escapes));
        assert_eq!(VPath::parse("/.."), Err(PathError::Escapes));
        assert_eq!(VPath::parse("/a/../../etc/passwd"), Err(PathError::Escapes));
        assert_eq!(VPath::parse("a/b/../../.."), Err(PathError::Escapes));
    }

    #[test]
    fn empty_path_rejected() {
        assert_eq!(VPath::parse(""), Err(PathError::Empty));
    }

    #[test]
    fn nul_byte_rejected() {
        for raw in ["/a\0b", "/a\nlot 9 user x 1 1 1", "/a\rb"] {
            assert!(matches!(VPath::parse(raw), Err(PathError::BadComponent(_))));
        }
    }

    #[test]
    fn join_relative_and_absolute() {
        let dir = VPath::parse("/home/user").unwrap();
        assert_eq!(
            dir.join("data.txt").unwrap().to_string(),
            "/home/user/data.txt"
        );
        assert_eq!(dir.join("../other").unwrap().to_string(), "/home/other");
        assert_eq!(dir.join("/abs").unwrap().to_string(), "/abs");
        assert_eq!(dir.join("../../.."), Err(PathError::Escapes));
    }

    #[test]
    fn parent_and_file_name() {
        let p = VPath::parse("/a/b").unwrap();
        assert_eq!(p.file_name(), Some("b"));
        assert_eq!(p.parent().unwrap().to_string(), "/a");
        assert_eq!(VPath::root().parent(), None);
        assert_eq!(VPath::root().file_name(), None);
    }

    #[test]
    fn starts_with_ancestry() {
        let a = VPath::parse("/a").unwrap();
        let ab = VPath::parse("/a/b").unwrap();
        let ax = VPath::parse("/ax").unwrap();
        assert!(ab.starts_with(&a));
        assert!(ab.starts_with(&VPath::root()));
        assert!(!ax.starts_with(&a));
        assert!(!a.starts_with(&ab));
        assert!(a.starts_with(&a));
    }
}
