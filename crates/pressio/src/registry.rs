//! Name-indexed compressor registry (the LibPressio "plugin" table).

use crate::Compressor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static description of a registered compressor, printed by the Table I
/// reproduction binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressorInfo {
    /// Registry key.
    pub name: String,
    /// One-line algorithm description.
    pub description: String,
    /// Version string of the implementation.
    pub version: String,
}

/// A collection of compressors addressable by name.
///
/// Compressors are stored behind `Arc` so the experiment driver can hand the
/// same instance to many worker threads.
#[derive(Default, Clone)]
pub struct Registry {
    entries: BTreeMap<String, (Arc<dyn Compressor>, CompressorInfo)>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry { entries: BTreeMap::new() }
    }

    /// Register a compressor under its own name with a version string.
    /// Re-registering a name replaces the previous entry.
    pub fn register(&mut self, compressor: Arc<dyn Compressor>, version: &str) {
        let info = CompressorInfo {
            name: compressor.name().to_string(),
            description: compressor.description().to_string(),
            version: version.to_string(),
        };
        self.entries.insert(info.name.clone(), (compressor, info));
    }

    /// Look up a compressor by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Compressor>> {
        self.entries.get(name).map(|(c, _)| Arc::clone(c))
    }

    /// Names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Info records in name order.
    pub fn infos(&self) -> Vec<CompressorInfo> {
        self.entries.values().map(|(_, info)| info.clone()).collect()
    }

    /// Number of registered compressors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All compressors in name order (the iteration order the experiment
    /// driver uses so results are deterministic).
    pub fn compressors(&self) -> Vec<Arc<dyn Compressor>> {
        self.entries.values().map(|(c, _)| Arc::clone(c)).collect()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("names", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressError, ErrorBound};
    use lcc_grid::Field2D;

    struct Fake(&'static str);

    impl Compressor for Fake {
        fn name(&self) -> &str {
            self.0
        }
        fn description(&self) -> &str {
            "fake compressor for registry tests"
        }
        fn compress_view_with(
            &self,
            _view: &lcc_grid::FieldView<'_>,
            _bound: ErrorBound,
            _scratch: &mut crate::ScratchArena,
        ) -> Result<Vec<u8>, CompressError> {
            Ok(vec![1, 2, 3])
        }
        fn decompress_view_with(
            &self,
            _stream: &[u8],
            _scratch: &mut crate::ScratchArena,
            out: &mut Field2D,
        ) -> Result<(), CompressError> {
            *out = Field2D::zeros(1, 1);
            Ok(())
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.register(Arc::new(Fake("zeta")), "0.1");
        r.register(Arc::new(Fake("alpha")), "0.2");
        assert_eq!(r.len(), 2);
        assert_eq!(r.names(), vec!["alpha".to_string(), "zeta".to_string()]);
        assert!(r.get("alpha").is_some());
        assert!(r.get("missing").is_none());
        assert_eq!(r.compressors().len(), 2);
        let dbg = format!("{r:?}");
        assert!(dbg.contains("alpha"));
    }

    #[test]
    fn infos_capture_description_and_version() {
        let mut r = Registry::new();
        r.register(Arc::new(Fake("sz-like")), "2.1.11.1-rs");
        let infos = r.infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "sz-like");
        assert_eq!(infos[0].version, "2.1.11.1-rs");
        assert!(infos[0].description.contains("fake"));
    }

    #[test]
    fn reregistering_replaces() {
        let mut r = Registry::new();
        r.register(Arc::new(Fake("x")), "1");
        r.register(Arc::new(Fake("x")), "2");
        assert_eq!(r.len(), 1);
        assert_eq!(r.infos()[0].version, "2");
    }
}
