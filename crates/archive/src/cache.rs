//! Sharded, byte-budgeted cache of decoded tiles: admitted by frequency,
//! evicted by recency.
//!
//! Region reads of hot tiles should skip entropy decode entirely: the cache
//! keys decoded tile buffers by (archive, entry, tile) and hands out
//! `Arc`-shared copies, so a cache hit is a lock + memcpy.
//!
//! **Policy.** Within a shard the eviction *victim* is the least recently
//! used tile (found by a linear scan of the shard), but a new tile
//! only displaces it when the new tile has been asked for at least as often
//! lately — TinyLFU's admission idea in its smallest form. Every lookup, hit
//! or miss, bumps a 4-bit saturating count for its key (resident tiles carry
//! theirs; keys that are not resident sit in a small side table); every
//! `AGEING_LOOKUPS_PER_TILE × resident tiles` lookups all counts are
//! halved and zeroed keys dropped, which bounds the side table by the
//! ageing window and lets a shift in popularity through. When an insert
//! would push the shard over its budget the candidate's count is compared
//! with the LRU victim's and the colder of the two leaves; ties admit, so a
//! never-repeating scan behaves exactly like plain LRU, while a one-touch
//! sweep can no longer flush tiles that are read every few requests. A
//! refused tile costs its one decode and nothing else: no resident tile
//! moves and the decoded buffer stays with the reader. Plain LRU served the
//! e2e `region` workload (Zipf(1.1) windows, budget a quarter of the
//! archive) at a hit rate of 0.54; this policy reads 0.65 in the same 16
//! shards and 0.675 in the 3 the budget now gets.
//!
//! **Sharding.** Contention is kept off the hot path the same way
//! [`lcc_pressio`]'s `FrameAssembler` does it — plain `std::sync::Mutex`es,
//! sharded by key hash. Each shard enforces its own slice of the budget, so
//! every extra shard rounds the slice down to whole tiles and adds
//! imbalance: the shard count is derived from the budget so that a slice is
//! at least `MIN_SHARD_BYTES` (see there for the measurement).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// FNV-1a over the bit patterns of the decoded values: the integrity digest
/// stored with each tile when the cache verifies hits. Cheap (one xor +
/// multiply per value), allocation-free, and — unlike the stream-level
/// XXH64 digests — computed over *decoded* data, so it catches corruption
/// that happens after decode (a poisoned cache entry), which no checksum of
/// the compressed bytes can see.
fn value_digest(data: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of one decoded tile: which open archive (a process-unique id,
/// so re-opening a file never aliases stale tiles), which entry, which
/// row-major tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    /// Process-unique id of the open archive ([`crate::Archive`] draws one
    /// per `open`).
    pub archive: u64,
    /// Entry index within the archive.
    pub entry: u32,
    /// Row-major tile id within the entry.
    pub tile: u32,
}

/// A decoded tile as stored in (and handed out by) the cache: the flat
/// row-major values plus the tile's shape. The buffer is `Arc`-shared —
/// readers copy the window they need out of it without cloning the tile.
#[derive(Debug, Clone)]
pub(crate) struct CachedTile {
    /// Row-major decoded values, `ny * nx` long.
    pub data: Arc<Vec<f64>>,
    /// Tile rows.
    pub ny: usize,
    /// Tile columns.
    pub nx: usize,
}

struct ShardEntry {
    tile: CachedTile,
    last_used: u64,
    /// Recent lookups of this key (see the module docs), at most
    /// `MAX_COUNT`.
    count: u8,
    /// [`value_digest`] of the decoded values at insert time; present only
    /// when the cache verifies hits.
    digest: Option<u64>,
}

impl ShardEntry {
    fn cost(&self) -> usize {
        tile_cost(self.tile.data.len())
    }
}

/// Budget bytes a tile of `cells` values is charged.
fn tile_cost(cells: usize) -> usize {
    cells * 8 + ENTRY_OVERHEAD
}

#[derive(Default)]
struct Shard {
    map: HashMap<TileKey, ShardEntry>,
    /// Sum of `cost()` over the resident entries.
    bytes: usize,
    /// Monotone per-shard clock stamping recency (no wall time involved).
    /// Every stamp is unique, so ascending `last_used` *is* the LRU order.
    tick: u64,
    /// Recent-lookup counts of keys that are **not** resident (never zero).
    ghosts: HashMap<TileKey, u8>,
    /// Lookups since the counts were last halved.
    lookups_since_ageing: usize,
}

impl Shard {
    /// Count one lookup towards the ageing window and, when the window is
    /// full, halve every count and forget the keys that reach zero.
    fn age(&mut self) {
        self.lookups_since_ageing += 1;
        let window = AGEING_LOOKUPS_PER_TILE * self.map.len().max(MIN_AGEING_TILES);
        if self.lookups_since_ageing < window {
            return;
        }
        self.lookups_since_ageing = 0;
        for entry in self.map.values_mut() {
            entry.count /= 2;
        }
        self.ghosts.retain(|_, count| {
            *count /= 2;
            *count > 0
        });
    }

    /// The least recently used tile among those stamped after `horizon`.
    fn lru_after(&self, horizon: u64) -> Option<(&TileKey, &ShardEntry)> {
        self.map.iter().filter(|(_, e)| e.last_used > horizon).min_by_key(|(_, e)| e.last_used)
    }
}

/// A budget slice below this is not worth a lock of its own. Chosen on the
/// e2e `region` workload (4 MB budget, 32 KiB tiles, 2 vCPUs): at 16 shards
/// each slice rounds down to whole tiles (112 slots of the budget's 121)
/// and a hot shard cannot borrow from a cold one, and the hit rate reads
/// 0.654; the 3 shards this rule gives that budget hold 120 slots and read
/// 0.675. The locks do not notice: `par.queue_wait_us_p90` of traced
/// `region` runs is 524 µs at 3 shards against 542 at 16 at `--threads 2`
/// (medians of 3 alternating runs) and 811 against 788 at `--threads 4`
/// (medians of 8, run-to-run spread ± 100), with `req_per_s` higher at 3
/// shards in 4 of 5 pairs.
const MIN_SHARD_BYTES: usize = 1 << 20;
/// Most shards a cache splits into, however large the budget.
const MAX_SHARDS: usize = 16;
/// Flat bookkeeping bytes charged per cached tile (key, map slot, `Arc`
/// header) so a budget of N bytes really bounds resident memory near N.
const ENTRY_OVERHEAD: usize = 96;
/// Lookup counts saturate here: 4 bits tell "read every few requests" from
/// "read once", which is all admission asks of them.
const MAX_COUNT: u8 = 15;
/// Counts are halved every this many lookups per resident tile.
const AGEING_LOOKUPS_PER_TILE: usize = 10;
/// Floor of the ageing window in tiles, so a nearly empty shard does not
/// halve its counts on every other lookup.
const MIN_AGEING_TILES: usize = 8;

/// Aggregate cache counters, cheap enough to snapshot per report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a decoded tile.
    pub hits: u64,
    /// Lookups that missed (the caller then decodes and inserts).
    pub misses: u64,
    /// Resident tiles displaced to make room for an admitted one — nothing
    /// else: a refused insert evicts nothing.
    pub evictions: u64,
    /// Inserts turned away because the tile was colder than the LRU victim
    /// it would have displaced (`Admission::Refused`).
    pub refusals: u64,
    /// Verified lookups whose resident data no longer matched its insert-time
    /// digest; the poisoned entry was evicted and the caller re-decoded from
    /// source. Always 0 when the cache does not verify hits.
    pub integrity_failures: u64,
    /// Resident tiles right now.
    pub entries: u64,
    /// Resident bytes right now (values + bookkeeping overhead).
    pub bytes: u64,
}

/// Outcome of a verifying lookup ([`TileCache::get_checked`]).
#[derive(Debug, Clone)]
pub(crate) enum Lookup {
    /// Resident and (when the cache verifies) matching its digest.
    Hit(CachedTile),
    /// Resident but failing its integrity digest; the entry was evicted and
    /// the caller should re-decode from source (counted as recovered).
    Corrupt,
    /// Not resident.
    Miss,
}

/// What [`TileCache::insert`] did with the tile it was offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The tile is resident; the cache took the caller's buffer.
    Admitted,
    /// Making room meant displacing a tile looked up more often lately than
    /// this one, so the cache kept what it had.
    Refused,
    /// The tile alone exceeds a shard's slice of the budget.
    TooLarge,
}

/// The sharded decoded-tile cache. One instance is meant to be shared
/// (`Arc`) across every archive and serving thread in a process; the byte
/// budget bounds the sum of all resident tiles.
pub struct TileCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    /// When set, every insert stores a [`value_digest`] of the decoded
    /// values and [`TileCache::get_checked`] re-hashes on each hit,
    /// evicting entries whose resident data no longer matches. Off by
    /// default: the re-hash costs a few microseconds per hit, so only
    /// integrity-sensitive callers (`tests/chaos.rs`, degraded readers) opt in.
    verify: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    refusals: AtomicU64,
    integrity_failures: AtomicU64,
}

impl TileCache {
    /// Cache with a total byte budget, split evenly over one shard per MiB
    /// of budget (at least 1, at most 16); each shard evicts independently
    /// against its slice.
    pub fn new(byte_budget: usize) -> Self {
        TileCache::with_shards(byte_budget, (byte_budget / MIN_SHARD_BYTES).clamp(1, MAX_SHARDS))
    }

    fn with_shards(byte_budget: usize, shards: usize) -> Self {
        TileCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (byte_budget / shards).max(1),
            verify: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            integrity_failures: AtomicU64::new(0),
        }
    }

    /// Builder: turn hit verification on/off (see the `verify` field docs).
    /// Tiles inserted while verification is off carry no digest and are
    /// treated as corrupt by a later verified lookup, so flip this before
    /// populating the cache.
    pub fn with_verification(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    fn shard(&self, key: &TileKey) -> &Mutex<Shard> {
        // FNV-1a over the key words: cheap, and spreads sequential tile ids
        // across shards so a scan doesn't hammer one lock.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [key.archive, key.entry as u64, key.tile as u64] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Lock a shard, recovering from poisoning per the workspace policy
    /// documented in `lcc_par`: shard state is updated in single critical
    /// sections, so a poisoned lock carries no torn-invariant information.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look a tile up, refreshing its recency and counting the lookup
    /// towards the key's admission count. Counts a hit or a miss, and
    /// distinguishes a miss from a resident entry that failed its integrity
    /// digest: a corrupt entry is evicted on the spot and reported as
    /// [`Lookup::Corrupt`] so the caller can re-decode from source and
    /// account the tile as recovered rather than merely uncached. On a
    /// non-verifying cache this never returns `Corrupt`.
    pub(crate) fn get_checked(&self, key: &TileKey) -> Lookup {
        let mut shard = self.lock_shard(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        shard.age();
        if let Some(entry) = shard.map.get_mut(key) {
            entry.count = (entry.count + 1).min(MAX_COUNT);
            let corrupt = self.verify && entry.digest != Some(value_digest(&entry.tile.data));
            if !corrupt {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(entry.tile.clone());
            }
        } else {
            let count = shard.ghosts.entry(*key).or_insert(0);
            *count = (*count + 1).min(MAX_COUNT);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        }
        // Resident but failing its digest: evict so the caller's re-decode
        // replaces it with a good copy.
        let removed = shard.map.remove(key).expect("corrupt entry is resident");
        shard.bytes -= removed.cost();
        shard.ghosts.insert(*key, removed.count);
        self.integrity_failures.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Corrupt
    }

    /// Fault-injection hook: flip the low mantissa bit of the first value of
    /// a resident tile *without* updating its digest, modelling in-memory
    /// corruption of decoded data. Returns `false` when the tile is not
    /// resident. Outstanding `Arc` clones handed to earlier readers are
    /// unaffected (copy-on-write).
    #[cfg(test)]
    pub(crate) fn tamper(&self, key: &TileKey) -> bool {
        let mut shard = self.lock_shard(self.shard(key));
        match shard.map.get_mut(key) {
            Some(entry) => {
                let data = Arc::make_mut(&mut entry.tile.data);
                if let Some(v) = data.first_mut() {
                    *v = f64::from_bits(v.to_bits() ^ 1);
                }
                true
            }
            None => false,
        }
    }

    /// Offer a freshly decoded tile (replacing a resident copy of the same
    /// key). When the shard has no room, the least-recently-used tiles that
    /// would have to leave are weighed against the candidate by their
    /// recent-lookup counts: if any of them is hotter the insert is
    /// [`Admission::Refused`] and nothing resident moves; otherwise they are
    /// evicted and the tile is [`Admission::Admitted`].
    ///
    /// The cache takes the buffer, not a copy: on admission `data` is left
    /// holding the storage of an evicted tile no reader still shares (its
    /// contents unspecified, ready to decode the next tile into), or empty
    /// when there is none. On [`Admission::Refused`] and
    /// [`Admission::TooLarge`] `data` is untouched.
    ///
    /// # Panics
    /// Panics if `data.len() != ny * nx`.
    pub(crate) fn insert(
        &self,
        key: TileKey,
        data: &mut Vec<f64>,
        ny: usize,
        nx: usize,
    ) -> Admission {
        assert_eq!(data.len(), ny * nx, "tile data must match its shape");
        let cost = tile_cost(data.len());
        if cost > self.shard_budget {
            return Admission::TooLarge;
        }
        let digest = self.verify.then(|| value_digest(data));
        let mut guard = self.lock_shard(self.shard(&key));
        let shard = &mut *guard;
        shard.tick += 1;
        let tick = shard.tick;
        // A resident copy of the same key makes way first (two readers
        // decoded it at once): same size, so the new copy always fits.
        let count = match shard.map.remove(&key) {
            Some(prev) => {
                shard.bytes -= prev.cost();
                prev.count
            }
            None => shard.ghosts.get(&key).copied().unwrap_or(0),
        };
        // Walk the would-be victims in LRU order without touching them.
        let mut horizon = 0u64;
        let mut freed = 0usize;
        while shard.bytes - freed + cost > self.shard_budget {
            let (_, victim) = shard.lru_after(horizon).expect("an over-budget shard is non-empty");
            if victim.count > count {
                // A resident copy removed above keeps its count as a ghost.
                if count > 0 {
                    shard.ghosts.insert(key, count);
                }
                self.refusals.fetch_add(1, Ordering::Relaxed);
                return Admission::Refused;
            }
            horizon = victim.last_used;
            freed += victim.cost();
        }
        let resident = Arc::new(std::mem::take(data));
        while shard.bytes + cost > self.shard_budget {
            let victim = *shard.lru_after(0).expect("an over-budget shard is non-empty").0;
            let removed = shard.map.remove(&victim).expect("victim key was just found");
            shard.bytes -= removed.cost();
            if removed.count > 0 {
                shard.ghosts.insert(victim, removed.count);
            }
            if data.capacity() == 0 {
                *data = Arc::try_unwrap(removed.tile.data).unwrap_or_default();
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.ghosts.remove(&key);
        shard.bytes += cost;
        let tile = CachedTile { data: resident, ny, nx };
        shard.map.insert(key, ShardEntry { tile, last_used: tick, count, digest });
        Admission::Admitted
    }

    /// Snapshot the aggregate counters and residency.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let shard = self.lock_shard(shard);
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            integrity_failures: self.integrity_failures.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    fn key(tile: u32) -> TileKey {
        TileKey { archive: 1, entry: 0, tile }
    }

    /// 16-cell tiles: small enough that a test can hold thousands.
    const CELLS: usize = 16;
    const COST: usize = CELLS * 8 + ENTRY_OVERHEAD;

    fn insert(cache: &TileCache, key: TileKey, v: f64) -> Admission {
        cache.insert(key, &mut vec![v; CELLS], 4, 4)
    }

    fn hit(cache: &TileCache, key: &TileKey) -> bool {
        matches!(cache.get_checked(key), Lookup::Hit(_))
    }

    /// What a reader does with one tile: look it up, decode and offer it on
    /// a miss. Returns whether the lookup hit.
    fn touch(cache: &TileCache, key: TileKey) -> bool {
        let found = hit(cache, &key);
        if !found {
            insert(cache, key, key.tile as f64);
        }
        found
    }

    /// The resident keys, by brute force over `0..universe`, without
    /// disturbing recency or counts.
    fn resident(cache: &TileCache, universe: u32) -> HashSet<u32> {
        (0..universe)
            .filter(|&t| {
                let k = key(t);
                cache.lock_shard(cache.shard(&k)).map.contains_key(&k)
            })
            .collect()
    }

    /// Plain LRU of `capacity` equal tiles: the policy this cache replaced,
    /// kept as the yardstick of the policy tests.
    struct PlainLru {
        capacity: usize,
        tick: u64,
        last_used: HashMap<TileKey, u64>,
    }

    impl PlainLru {
        fn new(capacity: usize) -> Self {
            PlainLru { capacity, tick: 0, last_used: HashMap::new() }
        }

        fn touch(&mut self, key: TileKey) -> bool {
            self.tick += 1;
            let found = self.last_used.insert(key, self.tick).is_some();
            if self.last_used.len() > self.capacity {
                let victim = *self.last_used.iter().min_by_key(|(_, &t)| t).expect("non-empty").0;
                self.last_used.remove(&victim);
            }
            found
        }
    }

    /// SplitMix64, as the e2e benchmark's schedule generator.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.uniform() * n as f64) as usize
        }
    }

    /// The tile trace of the e2e `region` workload's shape: `requests` draws,
    /// Zipf(1.1) over 1 024 candidate windows of 64..=192 cells square at
    /// arbitrary offsets of eight 512 × 512 entries in 64 × 64 tiles, each
    /// expanded to the tiles it overlaps.
    fn zipf_window_trace(seed: u64, requests: usize) -> Vec<TileKey> {
        const N: usize = 512;
        const TILE: usize = 64;
        let mut rng = Rng(seed);
        let windows: Vec<(u32, usize, usize, usize)> = (0..1024)
            .map(|_| {
                let entry = rng.below(8) as u32;
                let edge = 64 + rng.below(129);
                (entry, rng.below(N - edge + 1), rng.below(N - edge + 1), edge)
            })
            .collect();
        let mut cdf: Vec<f64> = Vec::with_capacity(windows.len());
        let mut acc = 0.0;
        for rank in 1..=windows.len() {
            acc += 1.0 / (rank as f64).powf(1.1);
            cdf.push(acc);
        }
        let mut trace = Vec::new();
        for _ in 0..requests {
            let u = rng.uniform() * acc;
            let (entry, i0, j0, edge) = windows[cdf.partition_point(|&c| c <= u).min(1023)];
            for ty in i0 / TILE..=(i0 + edge - 1) / TILE {
                for tx in j0 / TILE..=(j0 + edge - 1) / TILE {
                    trace.push(TileKey { archive: 1, entry, tile: (ty * (N / TILE) + tx) as u32 });
                }
            }
        }
        trace
    }

    #[test]
    fn lookup_after_insert_returns_the_tile_and_counts_hits() {
        let cache = TileCache::new(1 << 20);
        assert!(matches!(cache.get_checked(&key(0)), Lookup::Miss));
        assert_eq!(insert(&cache, key(0), 7.0), Admission::Admitted);
        let Lookup::Hit(got) = cache.get_checked(&key(0)) else { panic!("tile is resident") };
        assert_eq!((got.ny, got.nx), (4, 4));
        assert_eq!(*got.data, vec![7.0; 16]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn shard_count_follows_the_budget() {
        for (budget, shards) in
            [(0, 1), (250_000, 1), (4_000_000, 3), (16 << 20, 16), (1 << 30, 16)]
        {
            assert_eq!(TileCache::new(budget).shards.len(), shards, "budget {budget}");
        }
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        // One shard so the budget and recency order are fully deterministic:
        // room for exactly two tiles.
        let cache = TileCache::with_shards(2 * COST, 1);
        assert_eq!(insert(&cache, key(0), 0.0), Admission::Admitted);
        assert_eq!(insert(&cache, key(1), 1.0), Admission::Admitted);
        // Touch tile 0 so tile 1 is the LRU victim.
        assert!(hit(&cache, &key(0)));
        assert_eq!(insert(&cache, key(2), 2.0), Admission::Admitted);
        assert_eq!(resident(&cache, 3), HashSet::from([0, 2]), "the LRU tile was evicted");
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.refusals), (1, 0));
        assert!(stats.bytes <= 2 * COST as u64);
    }

    #[test]
    fn a_colder_candidate_is_refused_and_nothing_moves() {
        let cache = TileCache::with_shards(2 * COST, 1);
        insert(&cache, key(0), 0.0);
        insert(&cache, key(1), 1.0);
        for _ in 0..3 {
            assert!(hit(&cache, &key(0)) && hit(&cache, &key(1)));
        }
        // Tile 2 was asked for once, the LRU victim three times.
        assert!(!hit(&cache, &key(2)));
        let mut data = vec![2.0; CELLS];
        assert_eq!(cache.insert(key(2), &mut data, 4, 4), Admission::Refused);
        assert_eq!(data, vec![2.0; CELLS], "a refused tile keeps its buffer");
        assert_eq!(resident(&cache, 3), HashSet::from([0, 1]));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.refusals, stats.entries), (0, 1, 2));
        // Asked for as often as the victim, it gets in (ties admit).
        assert!(!hit(&cache, &key(2)) && !hit(&cache, &key(2)));
        assert_eq!(cache.insert(key(2), &mut data, 4, 4), Admission::Admitted);
        assert_eq!(resident(&cache, 3), HashSet::from([1, 2]));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn an_admitted_tile_hands_back_the_evicted_buffer() {
        let cache = TileCache::with_shards(COST, 1);
        let mut first = vec![1.0; CELLS];
        let first_at = first.as_ptr();
        assert_eq!(cache.insert(key(0), &mut first, 4, 4), Admission::Admitted);
        assert_eq!(first.capacity(), 0, "nothing to recycle yet");
        let mut second = vec![2.0; CELLS];
        assert_eq!(cache.insert(key(1), &mut second, 4, 4), Admission::Admitted);
        assert_eq!(second.as_ptr(), first_at, "the evicted tile's storage comes back");
        // A reader still holding the evicted tile keeps it; nothing is recycled.
        let Lookup::Hit(held) = cache.get_checked(&key(1)) else { panic!("tile 1 is resident") };
        let mut third = vec![3.0; CELLS];
        assert!(!hit(&cache, &key(2)));
        assert_eq!(cache.insert(key(2), &mut third, 4, 4), Admission::Admitted);
        assert_eq!(third.capacity(), 0);
        assert_eq!(*held.data, vec![2.0; CELLS]);
    }

    #[test]
    fn oversized_tiles_are_refused_not_cached() {
        let cache = TileCache::with_shards(64, 1);
        assert_eq!(cache.insert(key(0), &mut vec![0.0; 1024], 32, 32), Admission::TooLarge);
        assert_eq!(cache.stats().entries, 0);
        // A zero budget admits nothing at all.
        assert_eq!(insert(&TileCache::new(0), key(0), 0.0), Admission::TooLarge);
    }

    #[test]
    fn reinsert_replaces_without_double_counting_bytes() {
        let cache = TileCache::with_shards(1 << 20, 1);
        insert(&cache, key(0), 1.0);
        let before = cache.stats().bytes;
        assert_eq!(insert(&cache, key(0), 2.0), Admission::Admitted);
        assert_eq!(cache.stats().bytes, before);
        let Lookup::Hit(got) = cache.get_checked(&key(0)) else { panic!("tile is resident") };
        assert_eq!(*got.data, vec![2.0; 16]);
    }

    #[test]
    fn verified_cache_detects_tampered_tiles_and_evicts_them() {
        let cache = TileCache::new(1 << 20).with_verification(true);
        insert(&cache, key(0), 3.0);
        assert!(hit(&cache, &key(0)));
        assert!(cache.tamper(&key(0)));
        match cache.get_checked(&key(0)) {
            Lookup::Corrupt => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Evicted on detection: the next lookup is a plain miss.
        assert!(matches!(cache.get_checked(&key(0)), Lookup::Miss));
        let stats = cache.stats();
        assert_eq!(stats.integrity_failures, 1);
        assert_eq!(stats.entries, 0);
        // Reinserting a clean copy heals the key.
        insert(&cache, key(0), 3.0);
        assert!(hit(&cache, &key(0)));
    }

    #[test]
    fn unverified_cache_serves_tampered_tiles_blindly() {
        // Documents the default tradeoff: without verification, tampering is
        // invisible to the cache (no digest is stored or checked).
        let cache = TileCache::new(1 << 20);
        insert(&cache, key(0), 3.0);
        assert!(cache.tamper(&key(0)));
        assert!(hit(&cache, &key(0)));
        assert_eq!(cache.stats().integrity_failures, 0);
    }

    #[test]
    fn tamper_reports_absent_tiles() {
        let cache = TileCache::new(1 << 20);
        assert!(!cache.tamper(&key(9)));
    }

    #[test]
    fn distinct_archives_do_not_alias() {
        let cache = TileCache::new(1 << 20);
        cache.insert(TileKey { archive: 1, entry: 0, tile: 0 }, &mut vec![1.0; 4], 2, 2);
        assert!(!hit(&cache, &TileKey { archive: 2, entry: 0, tile: 0 }));
    }

    #[test]
    fn zipf_window_trace_beats_plain_lru_by_eight_points() {
        // Budget: a quarter of the 8 × 8 × 8 tiles, in the four shards a
        // budget of 128 full-size (32 KiB) tiles would get.
        let slots = 128;
        let cache = TileCache::with_shards(slots * COST, 4);
        let mut lru = PlainLru::new(slots);
        let trace = zipf_window_trace(2021, 3 * 4096);
        // The first third warms both up; the rest is measured.
        let (warm, measured) = trace.split_at(trace.len() / 3);
        for &k in warm {
            touch(&cache, k);
            lru.touch(k);
        }
        let hits = measured.iter().filter(|&&k| touch(&cache, k)).count();
        let lru_hits = measured.iter().filter(|&&k| lru.touch(k)).count();
        let rate = hits as f64 / measured.len() as f64;
        let lru_rate = lru_hits as f64 / measured.len() as f64;
        assert!(rate >= 0.62, "hit rate {rate:.3}");
        assert!(rate >= lru_rate + 0.08, "hit rate {rate:.3} against plain LRU's {lru_rate:.3}");
    }

    #[test]
    fn a_one_touch_sweep_does_not_flush_the_hot_set() {
        let slots = 64u32;
        let cache = TileCache::with_shards(slots as usize * COST, 1);
        let mut lru = PlainLru::new(slots as usize);
        let hot = slots / 2;
        let mut read = |k: TileKey| {
            touch(&cache, k);
            lru.touch(k);
        };
        for n in 0..4 * hot {
            read(key(n % hot));
        }
        // 4 × capacity keys seen once each, one hot tile read after every
        // third of them: a hot tile waits out 128 distinct keys between two
        // of its reads, twice what the cache holds.
        for n in 0..4 * slots {
            read(key(1000 + n));
            if n % 3 == 2 {
                read(key(n / 3 % hot));
            }
        }
        let kept = resident(&cache, hot).len();
        assert!(kept * 10 >= hot as usize * 9, "{kept} of {hot} hot tiles survived the sweep");
        let lru_kept = lru.last_used.keys().filter(|k| k.tile < hot).count();
        assert!(lru_kept * 2 <= hot as usize, "plain LRU kept {lru_kept} of {hot}");
    }

    #[test]
    fn a_never_repeating_stream_leaves_what_plain_lru_would() {
        let slots = 16u32;
        let cache = TileCache::with_shards(slots as usize * COST, 1);
        let mut lru = PlainLru::new(slots as usize);
        // Long enough to cross several ageing windows.
        let n = 40 * slots;
        for t in 0..n {
            assert!(!touch(&cache, key(t)));
            lru.touch(key(t));
        }
        let expect: HashSet<u32> = lru.last_used.keys().map(|k| k.tile).collect();
        assert_eq!(resident(&cache, n), expect);
        let stats = cache.stats();
        assert_eq!((stats.refusals, stats.evictions), (0, (n - slots) as u64));
    }

    #[test]
    fn a_popularity_shift_is_followed_within_three_ageing_windows() {
        let slots = 32u32;
        let cache = TileCache::with_shards(slots as usize * COST, 1);
        let window = AGEING_LOOKUPS_PER_TILE * slots as usize;
        // Saturate the old hot set's counts.
        for n in 0..20 * slots {
            touch(&cache, key(n % slots));
        }
        // A disjoint hot set of the same size replaces it.
        let mut hits = 0;
        for n in 0..4 * window {
            let found = touch(&cache, key(500 + n as u32 % slots));
            if n >= 3 * window {
                hits += usize::from(found);
            }
        }
        assert_eq!(hits, window, "every lookup of the fourth window hits");
        assert_eq!(resident(&cache, slots).len(), 0, "the old hot set is gone");
    }

    #[test]
    fn concurrent_readers_keep_the_budget_and_the_counts() {
        const THREADS: usize = 4;
        const LOOKUPS: usize = 20_000;
        let slots = 48;
        let budget = slots * COST;
        let cache = TileCache::with_shards(budget, 3).with_verification(true);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for id in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    let mut rng = Rng(id as u64);
                    start.wait();
                    for n in 0..LOOKUPS {
                        // A hot quarter and a long tail, so hits, evictions
                        // and refusals all happen on every shard.
                        let tile =
                            if n % 2 == 0 { rng.below(slots / 4) } else { rng.below(40 * slots) };
                        touch(cache, key(tile as u32));
                        if n % 64 == 0 {
                            let stats = cache.stats();
                            assert!(stats.bytes <= budget as u64, "{} resident bytes", stats.bytes);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * LOOKUPS) as u64);
        assert_eq!(stats.bytes, stats.entries * COST as u64);
        assert!(stats.bytes <= budget as u64);
        assert!(stats.evictions > 0 && stats.refusals > 0 && stats.integrity_failures == 0);
        // Verified mode still catches a poisoned tile afterwards, and heals.
        let victim =
            key(*resident(&cache, 40 * slots as u32).iter().next().expect("a resident tile"));
        assert!(cache.tamper(&victim));
        assert!(matches!(cache.get_checked(&victim), Lookup::Corrupt));
        assert_eq!(insert(&cache, victim, 1.0), Admission::Admitted);
        assert!(hit(&cache, &victim));
        assert_eq!(cache.stats().integrity_failures, 1);
    }
}
