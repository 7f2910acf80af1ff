package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// payload builds a distinguishable fake epoch payload.
func payload(epoch uint64) []byte {
	return []byte(fmt.Sprintf("model-payload-%d-%s", epoch, "xxxxxxxxxxxxxxxx"))
}

func mustCommit(t *testing.T, s *ModelStore, epoch uint64) {
	t.Helper()
	lin := Lineage{Epoch: epoch, Reason: "manual"}
	if epoch > 0 {
		lin.Parent = epoch - 1
	} else {
		lin.Reason = "base"
	}
	if err := s.Commit(payload(epoch), lin); err != nil {
		t.Fatal(err)
	}
}

func TestModelStoreCommitLatestLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty store: want ErrEmpty, got %v", err)
	}
	for e := uint64(0); e < 3; e++ {
		mustCommit(t, s, e)
	}
	lin, data, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if lin.Epoch != 2 || string(data) != string(payload(2)) {
		t.Fatalf("latest: epoch %d, %q", lin.Epoch, data)
	}
	if lin.Parent != 1 || lin.Reason != "manual" || lin.SavedAt.IsZero() {
		t.Fatalf("lineage not recorded: %+v", lin)
	}
	if _, data, err = s.Load(0); err != nil || string(data) != string(payload(0)) {
		t.Fatalf("load epoch 0: %q, %v", data, err)
	}
	if err := s.Commit(payload(2), Lineage{Epoch: 2}); err == nil {
		t.Fatal("double-commit of an epoch must error")
	}

	// Reopen: everything survives.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Entries()); got != 3 {
		t.Fatalf("reopened store has %d entries, want 3", got)
	}
}

func TestModelStorePruneKeepsNewest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetKeep(2)
	for e := uint64(0); e < 5; e++ {
		mustCommit(t, s, e)
	}
	entries := s.Entries()
	if len(entries) != 2 || entries[0].Epoch != 3 || entries[1].Epoch != 4 {
		t.Fatalf("prune kept %+v, want epochs 3,4", entries)
	}
	if _, err := os.Stat(s.epochPath(0)); !os.IsNotExist(err) {
		t.Fatal("pruned epoch file still on disk")
	}
	if _, err := os.Stat(s.epochPath(4)); err != nil {
		t.Fatal("retained epoch file missing")
	}
}

// A short write to the payload file must fail the commit and leave the
// store — in memory and after reopen — on its previous committed state.
func TestModelStoreShortWriteKeepsLastGood(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, s, 0)
	// The injected writer simulates a crash mid-write: half the payload
	// lands at the *final* path (as if rename already happened against a
	// torn page, the worst case for a non-atomic writer), then the write
	// errors.
	s.SetPayloadWriter(func(path string, data []byte) error {
		os.WriteFile(path, data[:len(data)/2], 0o644)
		return errors.New("injected short write")
	})
	if err := s.Commit(payload(1), Lineage{Epoch: 1, Parent: 0, Reason: "drift"}); err == nil {
		t.Fatal("commit with failing writer must error")
	}
	s.SetPayloadWriter(nil)
	if lin, data, err := s.Latest(); err != nil || lin.Epoch != 0 || string(data) != string(payload(0)) {
		t.Fatalf("after failed commit: epoch %d err %v", lin.Epoch, err)
	}

	// Reopen: the torn epoch-1 file is an unacknowledged orphan and is
	// swept; epoch 0 still serves.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lin, data, err := s2.Latest()
	if err != nil || lin.Epoch != 0 || string(data) != string(payload(0)) {
		t.Fatalf("reopened after torn write: epoch %d err %v", lin.Epoch, err)
	}
	if _, err := os.Stat(s2.epochPath(1)); !os.IsNotExist(err) {
		t.Fatal("torn unacknowledged epoch file survived recovery")
	}
	// The store keeps working after recovery.
	mustCommit(t, s2, 1)
}

// A manifest-acknowledged file that is later truncated (bit rot, partial
// restore) must be quarantined on reopen, with Latest falling back to the
// last intact epoch.
func TestModelStoreRecoveryQuarantinesCorruptEpoch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, s, 0)
	mustCommit(t, s, 1)
	// Truncate the newest epoch file behind the manifest's back.
	if err := os.WriteFile(s.epochPath(1), payload(1)[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lin, data, err := s2.Latest()
	if err != nil || lin.Epoch != 0 || string(data) != string(payload(0)) {
		t.Fatalf("want fallback to epoch 0, got epoch %d err %v", lin.Epoch, err)
	}
	if _, err := os.Stat(s2.epochPath(1) + ".corrupt"); err != nil {
		t.Fatal("corrupt epoch was not quarantined")
	}
	// Corrupted-in-place (same size, flipped bits) is caught by CRC too.
	bad := payload(0)
	bad[0] ^= 0xFF
	if err := os.WriteFile(s2.epochPath(0), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s3.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("all epochs corrupt: want ErrEmpty, got %v", err)
	}
}

// Stray temp files from interrupted atomic writes are swept on open.
func TestModelStoreRecoverySweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, s, 0)
	tmp := filepath.Join(dir, "epoch-00000001.wsdb.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived recovery")
	}
}

// The manifest's size/CRC must describe the payload exactly.
func TestModelStoreLineageIntegrityFields(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := payload(0)
	if err := s.Commit(data, Lineage{Epoch: 0, Reason: "base", ModelHash: 0xDEADBEEF}); err != nil {
		t.Fatal(err)
	}
	e := s.Entries()[0]
	if e.Size != int64(len(data)) || e.CRC != crc32.ChecksumIEEE(data) || e.ModelHash != 0xDEADBEEF {
		t.Fatalf("lineage integrity fields wrong: %+v", e)
	}
}

// Commit must fail cleanly at either write stage: a payload-stage fault
// commits nothing; a manifest-stage fault leaves only an orphan payload that
// the next Open sweeps. In both cases the store stays on its last good
// epoch.
func TestCommitFailsAtEveryWriteStage(t *testing.T) {
	boom := errors.New("injected write fault")
	for _, stage := range []string{"payload", "manifest"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			mustCommit(t, s, 0)
			switch stage {
			case "payload":
				s.SetPayloadWriter(func(string, []byte) error { return boom })
			case "manifest":
				s.SetManifestWriter(func(string, []byte) error { return boom })
			}
			if err := s.Commit(payload(1), Lineage{Epoch: 1, Parent: 0, Reason: "drift"}); !errors.Is(err, boom) {
				t.Fatalf("commit with a failing %s write: got %v", stage, err)
			}
			if epoch, ok := s.LatestEpoch(); !ok || epoch != 0 {
				t.Fatalf("store must stay on epoch 0, got %d (%v)", epoch, ok)
			}
			// A failed commit must not poison the epoch: clearing the fault
			// and retrying the same commit succeeds.
			s.SetPayloadWriter(nil)
			s.SetManifestWriter(nil)
			if err := s.Commit(payload(1), Lineage{Epoch: 1, Parent: 0, Reason: "drift"}); err != nil {
				t.Fatalf("retry after clearing the fault: %v", err)
			}
			// Reopen: recovery agrees, and no stray files remain.
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if epoch, ok := s2.LatestEpoch(); !ok || epoch != 1 {
				t.Fatalf("reopened store: epoch %d (%v), want 1", epoch, ok)
			}
			if q := s2.Quarantined(); len(q) != 0 {
				t.Fatalf("a failed commit is not corruption; quarantine must be empty, got %v", q)
			}
		})
	}
}

// A manifest-stage fault strands the durable payload as an orphan; the next
// Open sweeps it rather than resurrecting the unacknowledged commit.
func TestManifestFaultOrphanSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, s, 0)
	boom := errors.New("injected manifest fault")
	s.SetManifestWriter(func(string, []byte) error { return boom })
	if err := s.Commit(payload(1), Lineage{Epoch: 1, Parent: 0, Reason: "drift"}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, fmt.Sprintf(epochPattern, uint64(1)))
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("the payload must be on disk before the manifest stage: %v", err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("Open must sweep the unacknowledged payload, got %v", err)
	}
}

// Quarantined surfaces the .corrupt files recovery sets aside.
func TestQuarantinedListing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, s, 0)
	mustCommit(t, s, 1)
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("healthy store: want no quarantine, got %v", q)
	}
	// Flip a byte in epoch 1: recovery must quarantine it.
	path := filepath.Join(dir, fmt.Sprintf(epochPattern, uint64(1)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := s2.Quarantined()
	if len(q) != 1 || q[0] != filepath.Base(path)+".corrupt" {
		t.Fatalf("want exactly the corrupted epoch quarantined, got %v", q)
	}
	if epoch, ok := s2.LatestEpoch(); !ok || epoch != 0 {
		t.Fatalf("recovery must fall back to epoch 0, got %d (%v)", epoch, ok)
	}
}

// Commit and the payload writers keep nothing of data once they return, so
// a caller may recycle the buffer at once (registry checkpoints lay their
// containers out in a pooled one). Scribbling over the buffer right after
// each Commit must leave every epoch loading what was committed — through
// the default writer and through an installed one, and after a reopen.
func TestCommitKeepsNoReferenceToData(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	commit := func(epoch uint64) {
		buf = append(buf[:0], payload(epoch)...)
		if err := s.Commit(buf, Lineage{Epoch: epoch, Parent: max(epoch, 1) - 1, Reason: "manual"}); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'z'
		}
	}
	commit(0)
	commit(1)
	s.SetPayloadWriter(func(path string, data []byte) error { return WriteFileAtomic(path, data) })
	commit(2)
	commit(3)
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*ModelStore{s, reopened} {
		for e := uint64(0); e < 4; e++ {
			if _, data, err := st.Load(e); err != nil || string(data) != string(payload(e)) {
				t.Fatalf("epoch %d loads %q, %v; committed %q", e, data, err, payload(e))
			}
		}
	}
}
