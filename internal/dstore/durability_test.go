package dstore

import (
	"os"
	"path/filepath"
	"testing"
)

// obstruct puts a non-empty directory at path, so creating, truncating or
// renaming a file onto it fails the way a full or broken disk would.
func obstruct(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// sealFailureKeepsWAL makes the first seal of a fresh shard fail at the
// obstructed path and checks that the seal reports it, that the WAL
// segment the block would have covered is still on disk and replays every
// acknowledged span, and that the next seal succeeds once the obstacle is
// gone.
func sealFailureKeepsWAL(t *testing.T, obstacle func(dir string) string) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncAlways, SealSpans: 10, SealBytes: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	block := obstacle(dir)
	obstruct(t, block)
	appendBatches(t, s, 0, 1)
	b, payload := testBatch(1)
	if err := s.Append(payload, b); err == nil {
		t.Fatal("seal onto an obstructed path reported success")
	}
	wal := filepath.Join(dir, walName(1))
	if !exists(wal) {
		t.Fatal("failed seal deleted the WAL segment it would have covered")
	}
	if tmp := filepath.Join(dir, blockName(1, 1)+".tmp"); tmp != block && exists(tmp) {
		t.Fatal("failed seal left its tmp block behind")
	}
	if len(s.Blocks()) != 0 {
		t.Fatalf("failed seal registered a block: %+v", s.Blocks())
	}

	// A crash now recovers every acknowledged span from the WAL.
	s.Abort()
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	s, rs, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALSpans != 10 || rs.BlockSpans != 0 {
		t.Fatalf("replay after failed seal: %+v, want 10 WAL spans", rs)
	}
	// With the obstacle gone the next seal covers the old segments too.
	appendBatches(t, s, 2, 3)
	if len(s.Blocks()) != 1 || exists(wal) {
		t.Fatalf("seal after recovery: blocks %+v, old segment present %v", s.Blocks(), exists(wal))
	}
	if spans, _, _ := collect(t, s); len(spans) != 15 {
		t.Fatalf("scan after recovery: %d spans, want 15", len(spans))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealBlockWriteFailureKeepsWAL: the tmp block cannot be created.
func TestSealBlockWriteFailureKeepsWAL(t *testing.T) {
	sealFailureKeepsWAL(t, func(dir string) string {
		return filepath.Join(dir, blockName(1, 1)+".tmp")
	})
}

// TestSealPublishFailureKeepsWAL: the tmp block is written and synced, but
// the rename that publishes it fails; the tmp file is cleaned up.
func TestSealPublishFailureKeepsWAL(t *testing.T) {
	sealFailureKeepsWAL(t, func(dir string) string {
		return filepath.Join(dir, blockName(1, 1))
	})
}

// TestCompactWriteFailureKeepsInputs: a merged block that cannot be
// published leaves every input block registered and on disk.
func TestCompactWriteFailureKeepsInputs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 5, SealBytes: 1 << 30, CompactFanIn: 4}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendBatches(t, s, 0, 4)
	before := s.Blocks()
	if len(before) != 4 {
		t.Fatalf("want 4 blocks before compaction, have %d", len(before))
	}
	obstruct(t, filepath.Join(dir, blockName(before[0].WALFirst, before[3].WALLast)+".tmp"))
	merges, err := s.Compact()
	if err == nil || merges != 0 {
		t.Fatalf("compaction onto an obstructed path: merges %d, err %v", merges, err)
	}
	after := s.Blocks()
	if len(after) != len(before) {
		t.Fatalf("failed compaction changed the block list: %d → %d", len(before), len(after))
	}
	for _, b := range after {
		if !exists(b.Path) {
			t.Fatalf("failed compaction deleted input %s", b.Path)
		}
	}
}

func TestSyncDirReportsErrors(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncDir on a missing directory reported success")
	}
}
