// Package ingest is the iGOC's per-VO usage ledger: per-window Merkle
// roots over the usage accounted from the monitoring collectors, so
// "who used what" is answerable verifiably without rescanning raw
// events. Each monitoring window seals into a small Merkle tree whose
// leaves are the window's per-VO usage records (jobs completed, CPU
// seconds, bytes moved); the iGOC publishes only the roots, and any
// usage claim is checkable with an inclusion proof.
//
// The ledger is passive and single-writer: it schedules no engine
// events and draws no randomness. internal/core decides when a window
// closes and seals it.
//
// Wire format (audit claims, version 1):
//
//	"G3PRF" magic | version u8 | voLen u8 | vo bytes
//	window u64 | start i64 ns | end i64 ns
//	jobs u64 | cpuSeconds u64 | bytes u64
//	nSteps u8 (≤ MaxProofDepth) | nSteps × (hash [32] | dir u8 ∈ {0,1})
//
// All integers are big-endian. Decoding is strict: short buffers,
// trailing bytes, unknown versions, oversized step counts, and invalid
// direction bytes are all rejected with ErrBadProof, never a panic
// (fuzz_test.go holds the decoder to that). Bumping the layout bumps
// the version byte; old decoders reject newer claims cleanly.
package ingest

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

// UsageRecord is one Merkle leaf: what one VO consumed during one
// monitoring window. Values are window deltas of the grid's cumulative
// accounting (VOStats completions, ACDC CPU time, GridFTP per-VO
// bytes), sampled at the deterministic sim instant the window sealed.
type UsageRecord struct {
	VO         string        `json:"vo"`
	Window     uint64        `json:"window"`
	Start      time.Duration `json:"start"`
	End        time.Duration `json:"end"`
	Jobs       uint64        `json:"jobs"`
	CPUSeconds uint64        `json:"cpu_seconds"`
	Bytes      uint64        `json:"bytes"`
}

// MaxProofDepth bounds inclusion-proof length; 64 levels covers any
// conceivable VO count (2^64 leaves) while keeping decode allocations
// bounded.
const MaxProofDepth = 64

// maxVOLen bounds the VO name on the wire (u8 length prefix).
const maxVOLen = 255

// Domain-separation prefixes: a leaf hash can never be confused with an
// interior node hash (the classic second-preimage hardening).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// Leaf returns the record's leaf hash over its canonical encoding.
func (r UsageRecord) Leaf() [32]byte {
	buf := make([]byte, 0, 1+1+len(r.VO)+8*6)
	buf = append(buf, leafPrefix, byte(len(r.VO)))
	buf = append(buf, r.VO...)
	buf = binary.BigEndian.AppendUint64(buf, r.Window)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Start))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.End))
	buf = binary.BigEndian.AppendUint64(buf, r.Jobs)
	buf = binary.BigEndian.AppendUint64(buf, r.CPUSeconds)
	buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
	return sha256.Sum256(buf)
}

// fold combines two child hashes into their parent.
func fold(l, r [32]byte) [32]byte {
	var buf [1 + 64]byte
	buf[0] = nodePrefix
	copy(buf[1:33], l[:])
	copy(buf[33:], r[:])
	return sha256.Sum256(buf[:])
}

// Root computes the Merkle root over records in the order given (an odd
// node at any level is promoted unchanged). The zero hash is the root
// of an empty window.
func Root(records []UsageRecord) [32]byte {
	if len(records) == 0 {
		return [32]byte{}
	}
	level := make([][32]byte, len(records))
	for i, r := range records {
		level[i] = r.Leaf()
	}
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, fold(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

// ProofStep is one sibling hash on the path from leaf to root; Right
// reports whether the sibling sits to the right of the running hash.
type ProofStep struct {
	Hash  [32]byte
	Right bool
}

// Proof is a self-contained audit claim: the usage record itself plus
// its inclusion path. Verify against a published root.
type Proof struct {
	Record UsageRecord
	Steps  []ProofStep
}

// RootHash folds the record's leaf up through the proof path.
func (p *Proof) RootHash() [32]byte {
	h := p.Record.Leaf()
	for _, s := range p.Steps {
		if s.Right {
			h = fold(h, s.Hash)
		} else {
			h = fold(s.Hash, h)
		}
	}
	return h
}

// Verify reports whether the proof binds its record to root. It never
// panics, whatever the proof contents.
func Verify(root [32]byte, p *Proof) bool {
	if p == nil || len(p.Steps) > MaxProofDepth || len(p.Record.VO) > maxVOLen {
		return false
	}
	return p.RootHash() == root
}

// Prove builds the inclusion proof for the record at index idx within
// records (the same ordering Root was computed over).
func Prove(records []UsageRecord, idx int) (*Proof, error) {
	if idx < 0 || idx >= len(records) {
		return nil, fmt.Errorf("ingest: proof index %d out of range [0,%d)", idx, len(records))
	}
	level := make([][32]byte, len(records))
	for i, r := range records {
		level[i] = r.Leaf()
	}
	p := &Proof{Record: records[idx]}
	pos := idx
	for len(level) > 1 {
		sib := pos ^ 1
		if sib < len(level) {
			p.Steps = append(p.Steps, ProofStep{Hash: level[sib], Right: sib > pos})
		}
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, fold(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
		pos /= 2
	}
	return p, nil
}

// Wire constants for encoded audit claims.
var proofMagic = []byte("G3PRF")

const proofVersion = 1

// ErrBadProof is the sentinel every decode failure wraps.
var ErrBadProof = errors.New("ingest: malformed audit proof")

// EncodeProof renders a proof in the versioned wire format.
func EncodeProof(p *Proof) []byte {
	r := p.Record
	buf := make([]byte, 0, len(proofMagic)+2+len(r.VO)+8*6+1+len(p.Steps)*33)
	buf = append(buf, proofMagic...)
	buf = append(buf, proofVersion, byte(len(r.VO)))
	buf = append(buf, r.VO...)
	buf = binary.BigEndian.AppendUint64(buf, r.Window)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Start))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.End))
	buf = binary.BigEndian.AppendUint64(buf, r.Jobs)
	buf = binary.BigEndian.AppendUint64(buf, r.CPUSeconds)
	buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
	buf = append(buf, byte(len(p.Steps)))
	for _, s := range p.Steps {
		buf = append(buf, s.Hash[:]...)
		if s.Right {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeProof parses an encoded audit claim. Every length is checked
// before use and the total length must match exactly; malformed input
// returns an error wrapping ErrBadProof and never panics. The decoded
// proof does not alias data.
func DecodeProof(data []byte) (*Proof, error) {
	bad := func(what string) (*Proof, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadProof, what)
	}
	if len(data) < len(proofMagic)+2 {
		return bad("short header")
	}
	if string(data[:len(proofMagic)]) != string(proofMagic) {
		return bad("bad magic")
	}
	if data[len(proofMagic)] != proofVersion {
		return bad(fmt.Sprintf("unsupported version %d", data[len(proofMagic)]))
	}
	voLen := int(data[len(proofMagic)+1])
	off := len(proofMagic) + 2
	if len(data) < off+voLen+8*6+1 {
		return bad("truncated record")
	}
	p := &Proof{}
	p.Record.VO = string(data[off : off+voLen])
	off += voLen
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(data[off:])
		off += 8
		return v
	}
	p.Record.Window = u64()
	p.Record.Start = time.Duration(u64())
	p.Record.End = time.Duration(u64())
	p.Record.Jobs = u64()
	p.Record.CPUSeconds = u64()
	p.Record.Bytes = u64()
	nSteps := int(data[off])
	off++
	if nSteps > MaxProofDepth {
		return bad("proof too deep")
	}
	if len(data) != off+nSteps*33 {
		return bad("length mismatch")
	}
	p.Steps = make([]ProofStep, nSteps)
	for i := 0; i < nSteps; i++ {
		copy(p.Steps[i].Hash[:], data[off:off+32])
		switch data[off+32] {
		case 0:
			p.Steps[i].Right = false
		case 1:
			p.Steps[i].Right = true
		default:
			return bad("invalid direction byte")
		}
		off += 33
	}
	return p, nil
}

// Window is one sealed accounting window: its per-VO records (sorted by
// VO) and their Merkle root.
type Window struct {
	Index   uint64
	Start   time.Duration
	End     time.Duration
	Records []UsageRecord
	Root    [32]byte
}

// Ledger is the iGOC's append-only sequence of sealed windows. Core
// seals windows at deterministic sim instants; the audit API only
// reads.
type Ledger struct {
	windows []Window
	byIndex map[uint64]int
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byIndex: make(map[uint64]int)}
}

// Seal closes a window: records are copied, sorted by VO, hashed into a
// root, and appended. Sealing an already-sealed index is a programming
// error and panics (the caller tracks the seal frontier).
func (l *Ledger) Seal(index uint64, start, end time.Duration, records []UsageRecord) Window {
	if _, dup := l.byIndex[index]; dup {
		panic(fmt.Sprintf("ingest: window %d sealed twice", index))
	}
	recs := make([]UsageRecord, len(records))
	copy(recs, records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].VO < recs[j].VO })
	w := Window{Index: index, Start: start, End: end, Records: recs, Root: Root(recs)}
	l.byIndex[index] = len(l.windows)
	l.windows = append(l.windows, w)
	return w
}

// Len returns the number of sealed windows.
func (l *Ledger) Len() int { return len(l.windows) }

// Windows returns the sealed windows in seal order (shared backing
// array; callers must not mutate).
func (l *Ledger) Windows() []Window { return l.windows }

// Window looks up a sealed window by index.
func (l *Ledger) Window(index uint64) (Window, bool) {
	i, ok := l.byIndex[index]
	if !ok {
		return Window{}, false
	}
	return l.windows[i], true
}

// Prove builds the inclusion proof for one VO's record in a sealed
// window.
func (l *Ledger) Prove(index uint64, vo string) (*Proof, error) {
	w, ok := l.Window(index)
	if !ok {
		return nil, fmt.Errorf("ingest: window %d not sealed", index)
	}
	at := sort.Search(len(w.Records), func(i int) bool { return w.Records[i].VO >= vo })
	if at >= len(w.Records) || w.Records[at].VO != vo {
		return nil, fmt.Errorf("ingest: no record for VO %q in window %d", vo, index)
	}
	return Prove(w.Records, at)
}
