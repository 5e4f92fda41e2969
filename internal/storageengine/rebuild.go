// Server-side replica rebuild and membership-epoch support: the donor's
// export endpoints, the target's wipe/import/finalize endpoints, and the
// cluster epoch every offload reply is stamped with (cluster_runtime.go
// fences replies from stale epochs).
package storageengine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
)

// RebuildSessionPrefix marks a session id as a rebuild control session.
// ServeConn gates on it both ways: rebuild sessions cannot offload queries,
// query sessions cannot drive the rebuild verbs.
const RebuildSessionPrefix = "rebuild:"

// ErrRebuildUnsupported reports a rebuild attempt on a non-secure store —
// the vanilla pager has no manifest/anchor machinery to rebuild against.
var ErrRebuildUnsupported = errors.New("storageengine: rebuild requires the secure store")

// errNoRebuild reports an import call with no BeginRebuild in flight.
var errNoRebuild = errors.New("storageengine: no rebuild in progress")

// SetEpoch advances the node's view of the cluster membership epoch. It
// only ever moves forward: a broadcast arriving late cannot regress a node
// onto a fenced epoch.
func (s *Server) SetEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e > s.epoch {
		s.epoch = e
	}
}

// Epoch reports the node's current membership epoch. Every offload reply is
// stamped with it; the host rejects replies from any other epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SecureStore returns the node's secure store, or nil on vanilla
// configurations.
func (s *Server) SecureStore() *securestore.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, _ := s.store.(*securestore.Store)
	return ss
}

// SnapshotMedium captures the raw medium at a transaction boundary: on
// secure configurations the snapshot runs inside the store's commit lock, so
// a concurrent group commit can never tear the captured state.
func (s *Server) SnapshotMedium() map[uint32][]byte {
	ss := s.SecureStore()
	if ss == nil {
		return s.medium.SnapshotBlocks()
	}
	var snap map[uint32][]byte
	ss.Quiesce(func() error {
		snap = s.medium.SnapshotBlocks()
		return nil
	})
	return snap
}

// ExportRebuildManifest serializes the donor's committed state description.
func (s *Server) ExportRebuildManifest() ([]byte, error) {
	ss := s.SecureStore()
	if ss == nil {
		return nil, ErrRebuildUnsupported
	}
	m, err := ss.ExportManifest()
	if err != nil {
		return nil, err
	}
	return securestore.EncodeManifest(m), nil
}

// ExportRebuildPages returns verified plaintext pages [start, start+count).
func (s *Server) ExportRebuildPages(start, count uint32) ([][]byte, error) {
	ss := s.SecureStore()
	if ss == nil {
		return nil, ErrRebuildUnsupported
	}
	return ss.ExportPages(start, count)
}

// BeginRebuild prepares the target to import the manifest's state and
// returns the first page index the donor must stream. A medium that loads
// cleanly and carries a matching-content-root rebuild marker resumes from
// its committed prefix; anything else — unreadable, rolled back, diverged,
// or mid-rebuild of a DIFFERENT donor state — is wiped and imported from
// page zero. Either way the rebuild marker is (re)persisted before this
// returns, so the node cannot pass an integrity sweep until FinalizeRebuild.
func (s *Server) BeginRebuild(manifest []byte) (uint32, error) {
	if !s.cfg.Secure {
		return 0, ErrRebuildUnsupported
	}
	m, err := securestore.DecodeManifest(manifest)
	if err != nil {
		return 0, err
	}
	rs, start, err := s.openForImport(m)
	if err != nil {
		return 0, err
	}
	if err := rs.BeginImport(m); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.store = rs
	s.rebuildM = m
	s.mu.Unlock()
	return start, nil
}

// openForImport opens the target store for the manifest, deciding between
// resume and wipe-and-restart.
func (s *Server) openForImport(m *securestore.RebuildManifest) (*securestore.Store, uint32, error) {
	s.restartMu.Lock()
	defer s.restartMu.Unlock()
	rs, err := securestore.OpenRebuild(s.dev, s.nw, s.cfg.Meter, securestore.Options{})
	if err == nil {
		if start, ok := s.resumePoint(rs, m); ok {
			return rs, start, nil
		}
	}
	// Unresumable (or unreadable): wipe the medium — marker included — and
	// open empty. The wipe goes to the raw medium: it is the administrative
	// act that begins a from-scratch rebuild, not a store mutation.
	s.medium.RestoreBlocks(nil)
	rs, err = securestore.OpenRebuild(s.dev, s.nw, s.cfg.Meter, securestore.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("storageengine: reopening wiped medium for rebuild: %w", err)
	}
	return rs, 0, nil
}

// resumePoint reports where a previously interrupted import of the SAME
// donor state can continue, requiring the committed pages to be a dense
// matching prefix of the manifest.
func (s *Server) resumePoint(rs *securestore.Store, m *securestore.RebuildManifest) (uint32, bool) {
	if rs.Rebuilding() && !bytes.Equal(rs.RebuildRoot(), m.ContentRoot()) {
		return 0, false // mid-rebuild of a different donor state
	}
	diff, err := rs.DiffManifest(m)
	if err != nil {
		return 0, false
	}
	n := rs.NumPages()
	if len(diff) == 0 {
		return n, true // everything already present (crash between last chunk and finalize)
	}
	if diff[0] >= n {
		return n, true // committed prefix matches; only the tail is missing
	}
	return 0, false
}

// ImportRebuildPages verifies and commits one chunk received from the donor.
func (s *Server) ImportRebuildPages(start uint32, pages [][]byte) error {
	rs, m := s.rebuildState()
	if rs == nil {
		return errNoRebuild
	}
	return rs.ImportPages(start, pages, m)
}

// FinalizeRebuild completes the import (full re-verification, donor-seq
// adoption, marker clear) and reopens the store and engine over the rebuilt
// medium, leaving the node ready for ReattestStorage.
func (s *Server) FinalizeRebuild() error {
	rs, m := s.rebuildState()
	if rs == nil {
		return errNoRebuild
	}
	if err := rs.FinalizeImport(m); err != nil {
		return err
	}
	s.mu.Lock()
	s.rebuildM = nil
	s.mu.Unlock()
	return s.openStore()
}

// rebuildState fetches the in-flight rebuild's store and manifest.
func (s *Server) rebuildState() (*securestore.Store, *securestore.RebuildManifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rebuildM == nil {
		return nil, nil
	}
	ss, _ := s.store.(*securestore.Store)
	return ss, s.rebuildM
}

// encodePageList frames a page chunk: count, then length-prefixed pages.
func encodePageList(pages [][]byte) []byte {
	var b bytes.Buffer
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(pages)))
	b.Write(u32[:])
	for _, p := range pages {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(p)))
		b.Write(u32[:])
		b.Write(p)
	}
	return b.Bytes()
}

// decodePageList parses an encoded page chunk.
func decodePageList(blob []byte) ([][]byte, error) {
	if len(blob) < 4 {
		return nil, errors.New("storageengine: short page list")
	}
	n := binary.LittleEndian.Uint32(blob)
	pos := 4
	// Preallocate only what the blob could possibly carry (each page needs at
	// least its 4-byte length header): a forged count from a malicious donor
	// must not drive a giant allocation before the bounds checks below run.
	capHint := uint32(len(blob)-4) / 4
	if n < capHint {
		capHint = n
	}
	pages := make([][]byte, 0, capHint)
	for i := uint32(0); i < n; i++ {
		if pos+4 > len(blob) {
			return nil, errors.New("storageengine: truncated page list")
		}
		l := int(binary.LittleEndian.Uint32(blob[pos:]))
		pos += 4
		if l < 0 || l > pager.PageSize || pos+l > len(blob) {
			return nil, errors.New("storageengine: bad page length in page list")
		}
		pages = append(pages, append([]byte(nil), blob[pos:pos+l]...))
		pos += l
	}
	if pos != len(blob) {
		return nil, errors.New("storageengine: trailing bytes in page list")
	}
	return pages, nil
}
