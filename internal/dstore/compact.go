package dstore

// Size-tiered compaction: sealed blocks are bucketed into tiers by
// log2(size), and whenever CompactFanIn adjacent blocks (in walFirst
// order) share a tier they merge into one block covering their combined
// WAL range — row order preserved, so a compacted directory replays the
// identical ingest sequence. Inputs are read and the merged output written
// outside the shard lock; the swap re-validates the run under the lock
// (retention may have evicted an input meanwhile) and retires the old
// files through the same refcount protocol scans use.

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// compactTierBase anchors tier 0: blocks under 32 KiB share the bottom
// tier, and each tier above doubles the size range.
const compactTierBase = 32 << 10

// compactTier buckets a block size into its size tier.
func compactTier(size int64) int {
	if size < compactTierBase {
		return 0
	}
	return bits.Len64(uint64(size / compactTierBase))
}

// compactCandidateLocked finds the first run of cfg.CompactFanIn adjacent
// same-tier blocks, or nil. Callers hold mu.
func (s *Shard) compactCandidateLocked() []*blockHandle {
	fanIn := s.cfg.CompactFanIn
	for i := 0; i+fanIn <= len(s.blocks); i++ {
		tier := compactTier(s.blocks[i].bytes)
		run := 1
		for run < fanIn && compactTier(s.blocks[i+run].bytes) == tier {
			run++
		}
		if run == fanIn {
			return s.blocks[i : i+fanIn : i+fanIn]
		}
	}
	return nil
}

// recomputeDebtLocked refreshes the compaction-debt gauge: blocks above
// one per occupied size tier, i.e. how many merge inputs are pending.
// Callers hold mu.
func (s *Shard) recomputeDebtLocked() {
	tiers := make(map[int]bool, 8)
	for _, h := range s.blocks {
		tiers[compactTier(h.bytes)] = true
	}
	s.compactionDebt.Store(int64(len(s.blocks) - len(tiers)))
}

// Compact runs compaction steps until no run of CompactFanIn same-tier
// adjacent blocks remains, returning the number of merges performed. The
// ingest path calls it after every seal; tests call it directly.
func (s *Shard) Compact() (merges int, err error) {
	for {
		did, err := s.compactOnce()
		if err != nil {
			return merges, err
		}
		if !did {
			return merges, nil
		}
		merges++
	}
}

// compactOnce performs one merge step if a candidate run exists.
func (s *Shard) compactOnce() (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, nil
	}
	run := s.compactCandidateLocked()
	if run == nil {
		s.mu.Unlock()
		return false, nil
	}
	inputs := make([]*blockHandle, len(run))
	copy(inputs, run)
	for _, h := range inputs {
		h.refs++
	}
	s.mu.Unlock()

	// Read and merge outside the lock: block files are immutable and the
	// refs keep them on disk even if eviction races us.
	var spans []*trace.Span
	var flows []transport.FlowSample
	var profiles []profiling.Sample
	for _, h := range inputs {
		data, err := os.ReadFile(h.path)
		if err != nil {
			s.releaseHandles(inputs)
			return false, fmt.Errorf("dstore: compact read: %w", err)
		}
		_, bs, bf, bp, err := unmarshalBlock(data)
		if err != nil {
			s.releaseHandles(inputs)
			return false, fmt.Errorf("dstore: compact %s: %w", filepath.Base(h.path), err)
		}
		spans = append(spans, bs...)
		flows = append(flows, bf...)
		profiles = append(profiles, bp...)
	}
	walFirst, walLast := inputs[0].walFirst, inputs[len(inputs)-1].walLast
	data := marshalBlock(walFirst, walLast, spans, flows, profiles, s.cfg.Encoding)

	s.mu.Lock()
	// Re-validate: the run must still be intact and alive (eviction may
	// have removed an input while we merged). If not, drop the attempt.
	at := -1
	for i := range s.blocks {
		if s.blocks[i] == inputs[0] {
			at = i
			break
		}
	}
	intact := at >= 0 && at+len(inputs) <= len(s.blocks)
	if intact {
		for i, h := range inputs {
			if s.blocks[at+i] != h || h.dead {
				intact = false
				break
			}
		}
	}
	if !intact {
		s.mu.Unlock()
		s.releaseHandles(inputs)
		return false, nil
	}
	merged, err := s.writeBlockLocked(walFirst, walLast, data, len(spans), len(flows), len(profiles))
	if err != nil {
		s.mu.Unlock()
		s.releaseHandles(inputs)
		return false, err
	}
	// Swap the run for the merged block; input files are removed once the
	// last reference (ours, or a concurrent scan's) drops. A crash between
	// the merged block's rename and these deletes leaves subsumed inputs on
	// disk — Open detects containment and discards them.
	for _, h := range inputs {
		h.dead = true
	}
	rest := make([]*blockHandle, 0, len(s.blocks)-len(inputs)+1)
	rest = append(rest, s.blocks[:at]...)
	rest = append(rest, merged)
	rest = append(rest, s.blocks[at+len(inputs):]...)
	s.blocks = rest
	s.sealedBytes.Add(merged.bytes)
	s.nBlocks.Add(1)
	for _, h := range inputs {
		s.sealedBytes.Add(-h.bytes)
	}
	s.nBlocks.Add(-int64(len(inputs)))
	s.compactions.Add(1)
	s.recomputeDebtLocked()
	s.mu.Unlock()

	// The merged block and its directory entry synced before the swap, so
	// the inputs go without another directory sync: inputs a crash brings
	// back are subsumed by the merged block, and Open discards them.
	s.releaseHandles(inputs)
	return true, nil
}
