package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Lineage records where one persisted epoch came from — the audit trail of
// the serving registry across drift retrains, manual swaps, and restarts.
type Lineage struct {
	// Epoch is the registry generation this entry persists.
	Epoch uint64 `json:"epoch"`
	// Parent is the epoch that was serving when this one was installed.
	// Epoch 0 (the base model) is its own parent.
	Parent uint64 `json:"parent"`
	// Reason records why the epoch was installed: "base" for the initial
	// checkpoint, "drift" for a drift-triggered retrain, "manual" for an
	// explicit swap.
	Reason string `json:"reason"`
	// EMD is the Earth Mover's Distance that triggered the swap, zero for
	// non-drift installs.
	EMD float64 `json:"emd,omitempty"`
	// Mix is the normalized template-arrival mix the epoch targets; warm
	// start restores it so the drift detectors compare against exactly
	// the distribution the persisted model was serving.
	Mix []float64 `json:"mix,omitempty"`
	// ModelHash is the parallelism-independent content hash of the
	// encoded model (see core's codec), for cross-restart auditing.
	ModelHash uint64 `json:"model_hash"`
	// SavedAt is the wall-clock commit time.
	SavedAt time.Time `json:"saved_at"`
	// Size and CRC describe the committed epoch file; Open uses them to
	// detect partially written or bit-rotted files.
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`

	// RetrainMS is the wall time of the retrain that produced this epoch,
	// in milliseconds; zero for non-retrain installs and for manifests
	// written before the warm-retrain format (the fields below are all
	// omitempty, so old manifests round-trip unchanged).
	RetrainMS int64 `json:"retrain_ms,omitempty"`
	// WarmSamples and ColdSamples split the retrain's sample workloads into
	// those replayed from the prior epoch's retained search data and those
	// solved fresh. Both zero for cold (or pre-warm-format) epochs.
	WarmSamples int `json:"warm_samples,omitempty"`
	ColdSamples int `json:"cold_samples,omitempty"`
	// CacheHits and CacheMisses are the retrain's transposition-cache
	// lookup counters (cross-epoch reuse shows up as a high hit rate).
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
}

// manifest is the MANIFEST file: the store's source of truth. An epoch file
// exists durably if and only if the manifest lists it — the commit protocol
// (payload file first, manifest rename second) makes every crash land on a
// prefix of the commit history.
type manifest struct {
	FormatVersion int       `json:"format_version"`
	Entries       []Lineage `json:"entries"`
}

// ErrEmpty reports a store with no recoverable epochs.
var ErrEmpty = errors.New("store: no epochs in store")

const (
	manifestName = "MANIFEST"
	epochPattern = "epoch-%08d.wsdb"
)

// ModelStore is a durable, crash-safe directory of model epochs:
//
//	<dir>/MANIFEST            JSON manifest + lineage (source of truth)
//	<dir>/epoch-00000000.wsdb container-format model payloads
//	<dir>/epoch-00000001.wsdb
//	...
//
// Commit is atomic (write-to-temp, fsync, rename, then manifest rewrite by
// the same protocol), so a crash at any instant leaves the store equal to
// some earlier committed state plus possibly an orphan payload file, which
// Open removes. Open verifies every manifest entry against its file (size
// and CRC32) and quarantines mismatches, so Latest always returns the
// newest epoch that is bit-intact on disk.
//
// A ModelStore is safe for concurrent use.
type ModelStore struct {
	dir string

	mu      sync.Mutex
	entries []Lineage
	// keep bounds the number of epochs retained on disk: each Commit
	// prunes the oldest entries beyond it, in sync with the serving
	// engine's own epoch-cache eviction (superseded epochs can never be
	// served again; the on-disk window exists for lineage and rollback,
	// not for serving). Zero keeps everything; set with SetKeep.
	keep int

	// writePayload is the fault-injection seam of the crash-safety tests:
	// it writes an epoch payload file at path. nil selects the default
	// atomic write. The manifest always uses the default path, so an
	// injected payload failure exercises exactly the "crash while writing
	// an epoch file" window.
	writePayload func(path string, data []byte) error
	// writeManifest is the same seam for the MANIFEST rewrite — the second
	// write stage of the commit protocol. An injected failure here lands in
	// the "payload durable, commit unacknowledged" window: Commit must
	// report the error, drop the entry, and leave an orphan payload for the
	// next Open to sweep.
	writeManifest func(path string, data []byte) error
}

// DefaultKeep is the number of epochs a store retains by default.
const DefaultKeep = 8

// Open opens (creating if needed) a model store at dir and runs crash
// recovery: temp files from interrupted writes are removed, manifest
// entries whose files are missing, short, or checksum-broken are dropped
// (the files quarantined with a .corrupt suffix), and payload files the
// manifest never committed are deleted.
func Open(dir string) (*ModelStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &ModelStore{dir: dir, keep: DefaultKeep}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *ModelStore) Dir() string { return s.dir }

// recover loads the manifest and reconciles it with the directory.
func (s *ModelStore) recover() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	var m manifest
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &m); err != nil {
			// The manifest is renamed into place atomically, so a crash
			// cannot half-write it; an unparseable manifest is real
			// damage the operator must look at, not a recoverable state.
			return fmt.Errorf("store: MANIFEST is unreadable (not a crash artifact): %w", err)
		}
		if m.FormatVersion < MinFormatVersion || m.FormatVersion > FormatVersion {
			return fmt.Errorf("%w: MANIFEST has version %d, reader supports %d..%d", ErrVersion, m.FormatVersion, MinFormatVersion, FormatVersion)
		}
	case os.IsNotExist(err):
		m = manifest{FormatVersion: FormatVersion}
	default:
		return fmt.Errorf("store: open: %w", err)
	}

	// Keep only entries whose payload file is present and bit-intact.
	// Only *verification* failures (missing file, wrong size, bad CRC)
	// drop an entry; a read that errors for any other reason — EIO, a
	// permissions hiccup, a flaky mount — aborts Open instead, because
	// treating a transient error as corruption would let the orphan sweep
	// below delete a perfectly good epoch.
	var live []Lineage
	for _, e := range m.Entries {
		path := s.epochPath(e.Epoch)
		data, err := os.ReadFile(path)
		switch {
		case err == nil && int64(len(data)) == e.Size && crc32.ChecksumIEEE(data) == e.CRC:
			live = append(live, e)
		case err == nil:
			// Quarantine rather than delete: a manifest-listed file that
			// fails verification is evidence, not garbage.
			os.Rename(path, path+".corrupt")
		case os.IsNotExist(err):
			// The payload is gone; the entry is unrecoverable.
		default:
			return fmt.Errorf("store: open: verifying epoch %d: %w", e.Epoch, err)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Epoch < live[j].Epoch })
	s.entries = live
	if len(live) != len(m.Entries) {
		if err := s.writeManifestLocked(); err != nil {
			return err
		}
	}

	// Sweep crash artifacts: temp files from interrupted writes, and
	// epoch payloads the manifest never acknowledged (a crash between
	// payload rename and manifest rename — the commit did not happen).
	listed := map[string]bool{manifestName: true}
	for _, e := range s.entries {
		listed[filepath.Base(s.epochPath(e.Epoch))] = true
	}
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: open: %w", err)
	}
	for _, de := range dirents {
		name := de.Name()
		switch {
		case listed[name] || de.IsDir() || strings.HasSuffix(name, ".corrupt"):
			continue
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, "epoch-") && strings.HasSuffix(name, ".wsdb"):
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// epochPath returns the payload path for an epoch.
func (s *ModelStore) epochPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf(epochPattern, epoch))
}

// WriteFileAtomic durably writes data at path via the
// write-temp/fsync/rename protocol: after it returns nil the file content
// is either the old version or the complete new one at every crash instant.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself. Directory fsync is best-effort: some
	// filesystems refuse it, and the rename is already atomic.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeManifestLocked atomically rewrites the MANIFEST from s.entries.
func (s *ModelStore) writeManifestLocked() error {
	raw, err := json.MarshalIndent(manifest{FormatVersion: FormatVersion, Entries: s.entries}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	write := s.writeManifest
	if write == nil {
		write = WriteFileAtomic
	}
	if err := write(filepath.Join(s.dir, manifestName), append(raw, '\n')); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// Commit durably stores data as the payload of lin.Epoch and appends lin to
// the manifest, then prunes epochs beyond the retention bound (SetKeep). The payload file lands
// before the manifest acknowledges it, so a crash anywhere inside Commit
// leaves the store on its previous committed state. Committing an epoch the
// store already holds is an error. Commit keeps no reference to data once
// it returns (nor may a payload writer, see SetPayloadWriter), so the
// caller may reuse the buffer at once: registry checkpoints recycle theirs.
func (s *ModelStore) Commit(data []byte, lin Lineage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Epoch == lin.Epoch {
			return fmt.Errorf("store: epoch %d is already committed", lin.Epoch)
		}
	}
	lin.Size = int64(len(data))
	lin.CRC = crc32.ChecksumIEEE(data)
	if lin.SavedAt.IsZero() {
		lin.SavedAt = time.Now().UTC()
	}
	write := s.writePayload
	if write == nil {
		write = WriteFileAtomic
	}
	path := s.epochPath(lin.Epoch)
	if err := write(path, data); err != nil {
		return fmt.Errorf("store: commit epoch %d: %w", lin.Epoch, err)
	}
	s.entries = append(s.entries, lin)
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Epoch < s.entries[j].Epoch })
	if err := s.writeManifestLocked(); err != nil {
		// The payload file is an unacknowledged orphan now; the next Open
		// sweeps it.
		s.dropEntryLocked(lin.Epoch)
		return err
	}
	return s.pruneLocked()
}

// dropEntryLocked removes an entry from the in-memory manifest view.
func (s *ModelStore) dropEntryLocked(epoch uint64) {
	for i, e := range s.entries {
		if e.Epoch == epoch {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			return
		}
	}
}

// SetKeep changes the retention bound: the newest k epochs survive each
// commit's pruning pass (0 keeps everything). Safe to call while
// background checkpoints are committing.
func (s *ModelStore) SetKeep(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keep = k
}

// pruneLocked drops the oldest epochs beyond keep: manifest first (the
// commit point of the deletion), payload files second, so a crash between
// the two leaves only orphan files the next Open sweeps.
func (s *ModelStore) pruneLocked() error {
	if s.keep <= 0 || len(s.entries) <= s.keep {
		return nil
	}
	drop := append([]Lineage(nil), s.entries[:len(s.entries)-s.keep]...)
	s.entries = append(s.entries[:0], s.entries[len(drop):]...)
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	for _, e := range drop {
		os.Remove(s.epochPath(e.Epoch))
	}
	return nil
}

// Prune retains only the newest keep epochs (overriding Keep for this
// call).
func (s *ModelStore) Prune(keep int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	saved := s.keep
	s.keep = keep
	err := s.pruneLocked()
	s.keep = saved
	return err
}

// Entries returns the committed lineage, oldest first.
func (s *ModelStore) Entries() []Lineage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Lineage(nil), s.entries...)
}

// LatestEpoch returns the newest committed epoch number; ok is false for an
// empty store.
func (s *ModelStore) LatestEpoch() (epoch uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return 0, false
	}
	return s.entries[len(s.entries)-1].Epoch, true
}

// Latest returns the newest committed epoch's lineage and payload. A file
// that fails verification at read time (bit rot since Open) is quarantined
// and the next-newest epoch returned, falling back epoch by epoch;
// ErrEmpty reports a store with nothing recoverable left. Read errors that
// are not verification failures (transient I/O) surface as errors rather
// than discarding the epoch.
func (s *ModelStore) Latest() (Lineage, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.entries) > 0 {
		e := s.entries[len(s.entries)-1]
		data, err := s.loadLocked(e)
		if err == nil {
			return e, data, nil
		}
		if !isVerificationFailure(err) {
			return Lineage{}, nil, err
		}
		path := s.epochPath(e.Epoch)
		os.Rename(path, path+".corrupt")
		s.entries = s.entries[:len(s.entries)-1]
		if werr := s.writeManifestLocked(); werr != nil {
			return Lineage{}, nil, werr
		}
	}
	return Lineage{}, nil, ErrEmpty
}

// isVerificationFailure reports whether a payload load failed because the
// bytes on disk are wrong (missing, short, checksum-broken) as opposed to
// a read error that might succeed on retry.
func isVerificationFailure(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrCRC) || errors.Is(err, os.ErrNotExist)
}

// Load returns the payload of a specific committed epoch, verified against
// its manifest entry.
func (s *ModelStore) Load(epoch uint64) (Lineage, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Epoch == epoch {
			data, err := s.loadLocked(e)
			return e, data, err
		}
	}
	return Lineage{}, nil, fmt.Errorf("store: epoch %d is not in the store", epoch)
}

// loadLocked reads and verifies one entry's payload.
func (s *ModelStore) loadLocked(e Lineage) ([]byte, error) {
	data, err := os.ReadFile(s.epochPath(e.Epoch))
	if err != nil {
		return nil, fmt.Errorf("store: epoch %d: %w", e.Epoch, err)
	}
	if int64(len(data)) != e.Size {
		return nil, fmt.Errorf("%w: epoch %d file is %d bytes, manifest says %d", ErrTruncated, e.Epoch, len(data), e.Size)
	}
	if crc32.ChecksumIEEE(data) != e.CRC {
		return nil, fmt.Errorf("%w: epoch %d", ErrCRC, e.Epoch)
	}
	return data, nil
}

// SetPayloadWriter installs a replacement for the default atomic payload
// write — the fault-injection seam of the crash-safety tests (short writes,
// mid-write kills). A nil writer restores the default. Like the default, a
// writer must keep nothing of data after it returns: Commit's caller may
// reuse the buffer as soon as Commit does.
func (s *ModelStore) SetPayloadWriter(write func(path string, data []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writePayload = write
}

// SetManifestWriter installs a replacement for the default atomic MANIFEST
// write — the fault-injection seam for the second commit stage. A nil writer
// restores the default.
func (s *ModelStore) SetManifestWriter(write func(path string, data []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeManifest = write
}

// Quarantined lists the .corrupt files recovery and read-time verification
// have set aside in the store directory, sorted by name. These are evidence
// of past corruption, never deleted by the store itself.
func (s *ModelStore) Quarantined() []string {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, de := range dirents {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".corrupt") {
			out = append(out, de.Name())
		}
	}
	return out
}
