//! Distributed de Bruijn graph construction and traversal over two
//! interchangeable distributed-hash-table back-ends: PapyrusKV and the
//! UPC-style DSM (Figure 12).

use papyrus_dsm::GlobalHashTable;
use papyruskv::{BarrierLevel, Db};

use crate::ufx::{is_contig_start, UfxRecord, EXT_FORK, EXT_NONE};

/// The distributed hash table interface the assembler needs. Both the
/// PapyrusKV port and the UPC/DSM original provide it; the same hash
/// function defines thread-data affinity in both (Figure 12).
pub trait KmerBackend {
    /// Insert a k-mer with its extension code.
    fn insert(&self, kmer: &[u8], ext: [u8; 2]);
    /// Look up a k-mer's extension code.
    fn lookup(&self, kmer: &[u8]) -> Option<[u8; 2]>;
    /// Owner rank of a k-mer (work partitioning for traversal).
    fn owner_of(&self, kmer: &[u8]) -> usize;
    /// Synchronise: all inserts globally visible after this (collective).
    fn sync(&self);
}

/// Meraculous' k-mer hash — installed into PapyrusKV as the custom hash so
/// both versions place each k-mer on the same rank ("the same hash function
/// for load balancing in the UPC application is used in PapyrusKV").
pub fn meraculous_hash(kmer: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in kmer {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^ (h >> 33)
}

/// PapyrusKV-backed k-mer table.
pub struct PkvBackend {
    db: Db,
}

impl PkvBackend {
    /// Wrap an open PapyrusKV database. Callers should open it with
    /// [`meraculous_hash`] as the custom hash (see the `meraculous` tests
    /// and `fig13` bench for the full recipe).
    pub fn new(db: Db) -> Self {
        Self { db }
    }

    /// The underlying database.
    pub fn db(&self) -> &Db {
        &self.db
    }
}

impl KmerBackend for PkvBackend {
    fn insert(&self, kmer: &[u8], ext: [u8; 2]) {
        self.db.put(kmer, &ext).expect("pkv insert");
    }

    fn lookup(&self, kmer: &[u8]) -> Option<[u8; 2]> {
        match self.db.get(kmer) {
            Ok(v) if v.len() == 2 => Some([v[0], v[1]]),
            _ => None,
        }
    }

    fn owner_of(&self, kmer: &[u8]) -> usize {
        self.db.owner_of(kmer)
    }

    fn sync(&self) {
        self.db.barrier(BarrierLevel::MemTable).expect("pkv barrier");
    }
}

/// UPC/DSM-backed k-mer table (one-sided puts/gets).
pub struct DsmBackend {
    table: GlobalHashTable,
    rank: papyrus_mpi::RankCtx,
}

impl DsmBackend {
    /// Wrap an attached DSM table.
    pub fn new(table: GlobalHashTable, rank: papyrus_mpi::RankCtx) -> Self {
        Self { table, rank }
    }
}

impl KmerBackend for DsmBackend {
    fn insert(&self, kmer: &[u8], ext: [u8; 2]) {
        self.table.put(kmer, &ext);
    }

    fn lookup(&self, kmer: &[u8]) -> Option<[u8; 2]> {
        let v = self.table.get(kmer)?;
        (v.len() == 2).then(|| [v[0], v[1]])
    }

    fn owner_of(&self, kmer: &[u8]) -> usize {
        self.table.owner_of(kmer)
    }

    fn sync(&self) {
        self.rank.world().barrier();
    }
}

/// Construction phase: this rank inserts its share of the UFX dataset
/// (records `i` with `i % size == rank`), then synchronises.
pub fn construct<B: KmerBackend>(backend: &B, dataset: &[UfxRecord], rank: usize, size: usize) {
    for rec in dataset.iter().skip(rank).step_by(size) {
        backend.insert(&rec.kmer, rec.ext);
    }
    backend.sync();
}

/// Binary-search a sorted UFX dataset for a k-mer.
fn find_record<'a>(dataset: &'a [UfxRecord], kmer: &[u8]) -> Option<&'a UfxRecord> {
    dataset.binary_search_by(|r| r.kmer.as_slice().cmp(kmer)).ok().map(|i| &dataset[i])
}

/// Whether `rec` starts a contig, considering both its own left extension
/// and its predecessor's right extension.
///
/// A k-mer starts a contig when no unambiguous rightward walk arrives at
/// it: its left extension is terminal/forked, its predecessor
/// (`ext_left + kmer[..k-1]`) is missing, or the predecessor's rightward
/// step does not lead back into it (the predecessor forks, terminates, or
/// continues elsewhere). Without the predecessor check, the segments
/// *after* a repeat would never be seeded and coverage collapses.
fn starts_contig(dataset: &[UfxRecord], rec: &UfxRecord) -> bool {
    if is_contig_start(rec) {
        return true;
    }
    let mut pred = Vec::with_capacity(rec.kmer.len());
    pred.push(rec.ext[0]);
    pred.extend_from_slice(&rec.kmer[..rec.kmer.len() - 1]);
    match find_record(dataset, &pred) {
        Some(p) => {
            let step = p.ext[1];
            step == EXT_NONE || step == EXT_FORK || step != *rec.kmer.last().unwrap()
        }
        None => true,
    }
}

/// Traversal phase: walk maximal unambiguous paths rightward from contig
/// start k-mers owned by this rank; returns this rank's contigs.
///
/// Each contig has exactly one start k-mer (see `starts_contig`) and is
/// produced by exactly one rank — the owner of that start k-mer. Walks stop
/// at terminal/forked right extensions and *before* join k-mers (k-mers
/// that are themselves contig starts), so contigs never overlap except for
/// the inherent k-1 bases at junctions.
pub fn traverse<B: KmerBackend>(
    backend: &B,
    dataset: &[UfxRecord],
    rank: usize,
    k: usize,
    max_steps: usize,
) -> Vec<Vec<u8>> {
    let mut contigs = Vec::new();
    for rec in dataset.iter().filter(|r| starts_contig(dataset, r)) {
        if backend.owner_of(&rec.kmer) != rank {
            continue;
        }
        let mut contig = rec.kmer.clone();
        let mut cur = rec.kmer.clone();
        let mut ext = rec.ext;
        let mut steps = 0;
        loop {
            let right = ext[1];
            if right == EXT_NONE || right == EXT_FORK {
                break;
            }
            // Shift the window: drop the first base, append the extension.
            let mut next = cur[1..].to_vec();
            next.push(right);
            steps += 1;
            if steps >= max_steps {
                break; // cycle guard
            }
            // The distributed lookup: one remote get per extension step.
            let Some(next_ext) = backend.lookup(&next) else { break };
            // Stop before a join: that k-mer starts its own contig.
            if let Some(next_rec) = find_record(dataset, &next) {
                if starts_contig(dataset, next_rec) {
                    break;
                }
            }
            contig.push(right);
            cur = next;
            ext = next_ext;
        }
        let _ = k;
        contigs.push(contig);
    }
    contigs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{synthesize_genome, synthesize_reads, GenomeConfig};
    use crate::ufx::build_dataset;
    use papyrus_dsm::GlobalHashTable as Ght;
    use papyrus_mpi::{World, WorldConfig};
    use papyrus_nvm::SystemProfile;
    use papyrus_simtime::{MemModel, NetModel};
    use papyruskv::{Context, OpenFlags, Options, Platform};
    use std::sync::Arc;

    fn small_cfg() -> GenomeConfig {
        GenomeConfig {
            length: 4000,
            repeats: 4,
            repeat_len: 40,
            read_len: 120,
            coverage: 6,
            seed: 7,
        }
    }

    fn assemble_dsm(n: usize, cfg: &GenomeConfig, k: usize) -> Vec<Vec<u8>> {
        let genome = synthesize_genome(cfg);
        let reads = synthesize_reads(&genome, cfg);
        let dataset = Arc::new(build_dataset(&reads, k));
        let shared = Ght::shared(n, 1 << 14, NetModel::free(), MemModel::free());
        let per_rank = World::run(WorldConfig::for_tests(n), move |rank| {
            let backend = DsmBackend::new(Ght::attach(shared.clone(), rank.clone()), rank.clone());
            construct(&backend, &dataset, rank.rank(), rank.size());
            rank.world().barrier();
            traverse(&backend, &dataset, rank.rank(), k, dataset.len() + 10)
        });
        let mut all: Vec<Vec<u8>> = per_rank.into_iter().flatten().collect();
        all.sort();
        all
    }

    fn assemble_pkv(n: usize, cfg: &GenomeConfig, k: usize) -> Vec<Vec<u8>> {
        let genome = synthesize_genome(cfg);
        let reads = synthesize_reads(&genome, cfg);
        let dataset = Arc::new(build_dataset(&reads, k));
        let platform = Platform::new(SystemProfile::test_profile(), n);
        let per_rank = World::run(WorldConfig::for_tests(n), move |rank| {
            let ctx =
                Context::init(rank.clone(), platform.clone(), "nvm://meraculous-test").unwrap();
            let opt = Options::small()
                .with_memtable_capacity(1 << 20)
                .with_custom_hash(Arc::new(meraculous_hash));
            let db = ctx.open("kmers", OpenFlags::create(), opt).unwrap();
            let backend = PkvBackend::new(db.clone());
            construct(&backend, &dataset, rank.rank(), rank.size());
            let contigs = traverse(&backend, &dataset, rank.rank(), k, dataset.len() + 10);
            db.close().unwrap();
            ctx.finalize().unwrap();
            contigs
        });
        let mut all: Vec<Vec<u8>> = per_rank.into_iter().flatten().collect();
        all.sort();
        all
    }

    #[test]
    fn dsm_assembly_reconstructs_genome_fragments() {
        let cfg = small_cfg();
        let genome = synthesize_genome(&cfg);
        let contigs = assemble_dsm(2, &cfg, 21);
        assert!(!contigs.is_empty());
        // Every contig is a substring of the genome.
        let g = String::from_utf8(genome).unwrap();
        for c in &contigs {
            let s = std::str::from_utf8(c).unwrap();
            assert!(g.contains(s), "contig must be a genome substring (len {})", s.len());
        }
        // Contigs must reconstruct a large fraction of the genome.
        let covered: usize = contigs.iter().map(Vec::len).sum();
        assert!(covered as f64 > 0.8 * g.len() as f64, "covered {covered} of {}", g.len());
    }

    #[test]
    fn pkv_and_dsm_produce_identical_contigs() {
        // The artifact's check_results.sh: both implementations must emit
        // the same contig set.
        let cfg = small_cfg();
        let k = 21;
        let dsm = assemble_dsm(3, &cfg, k);
        let pkv = assemble_pkv(3, &cfg, k);
        assert_eq!(dsm.len(), pkv.len());
        assert_eq!(dsm, pkv);
    }

    #[test]
    fn contig_count_stable_across_rank_counts() {
        let cfg = small_cfg();
        let one = assemble_dsm(1, &cfg, 21);
        let four = assemble_dsm(4, &cfg, 21);
        assert_eq!(one, four, "decomposition must not change the result");
    }

    #[test]
    fn forks_break_contigs() {
        // A genome with heavy repeats must yield more contigs than a
        // repeat-free one of the same length.
        let mut plain = small_cfg();
        plain.repeats = 0;
        let mut repeaty = small_cfg();
        repeaty.repeats = 30;
        let plain_contigs = assemble_dsm(1, &plain, 21);
        let repeaty_contigs = assemble_dsm(1, &repeaty, 21);
        assert!(
            repeaty_contigs.len() > plain_contigs.len(),
            "repeats {} vs plain {}",
            repeaty_contigs.len(),
            plain_contigs.len()
        );
    }
}
