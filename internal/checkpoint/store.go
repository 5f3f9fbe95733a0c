package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by StateStore.Get for an unknown snapshot ID and
// by Latest when the store is empty.
var ErrNotFound = errors.New("checkpoint: snapshot not found")

// StateStore is the pluggable persistence boundary for encoded snapshots.
// Implementations store opaque byte records keyed by snapshot ID; framing,
// checksums, and interpretation belong to Encode/Decode. All methods must be
// safe for concurrent use.
//
// The in-tree backends mirror the memory-vs-durable split: MemStore for
// tests and in-process callers of the façade, DirStore for
// crash-recoverable daemons, and FileStore for grid3sim's single
// -checkpoint-out file.
type StateStore interface {
	// Put durably stores data under id, replacing any existing record.
	// A Put that returns nil must be all-or-nothing: a crash mid-Put may
	// lose the new record but never corrupts an old one.
	Put(id string, data []byte) error
	// Get returns the record stored under id, or ErrNotFound.
	Get(id string) ([]byte, error)
	// List returns all stored IDs in ascending lexicographic order —
	// which, for Snapshot.ID keys, is chronological sim-time order.
	List() ([]string, error)
	// Delete removes the record under id. Deleting an absent ID is a
	// no-op, not an error.
	Delete(id string) error
}

// Save encodes snap and stores it under its canonical ID.
func Save(st StateStore, snap *Snapshot) (string, error) {
	id := snap.ID()
	if err := st.Put(id, Encode(snap)); err != nil {
		return "", err
	}
	return id, nil
}

// Load fetches and decodes the snapshot stored under id.
func Load(st StateStore, id string) (*Snapshot, error) {
	data, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return snap, nil
}

// Latest decodes the newest loadable snapshot in the store, scanning from
// the most recent ID backwards and skipping records that fail to decode
// (e.g. a snapshot truncated by a crash mid-write on a non-atomic medium).
// It returns the snapshot, its ID, and — when every record was rejected —
// the newest record's decode error wrapped alongside ErrNotFound.
func Latest(st StateStore) (*Snapshot, string, error) {
	ids, err := st.List()
	if err != nil {
		return nil, "", err
	}
	var firstErr error
	for i := len(ids) - 1; i >= 0; i-- {
		snap, err := Load(st, ids[i])
		if err == nil {
			return snap, ids[i], nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, "", fmt.Errorf("%w (no loadable snapshot: %v)", ErrNotFound, firstErr)
	}
	return nil, "", ErrNotFound
}

// Prune deletes all but the newest keep snapshots. keep < 1 is treated
// as 1 so the most recent recovery point always survives.
func Prune(st StateStore, keep int) error {
	if keep < 1 {
		keep = 1
	}
	ids, err := st.List()
	if err != nil {
		return err
	}
	for i := 0; i < len(ids)-keep; i++ {
		if err := st.Delete(ids[i]); err != nil {
			return err
		}
	}
	return nil
}

// MemStore is an in-memory StateStore: snapshots live exactly as long as
// the process, so it suits tests and callers that restore within the
// process that captured. The zero value is ready to use.
type MemStore struct {
	mu   sync.Mutex
	recs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

func (m *MemStore) Put(id string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recs == nil {
		m.recs = make(map[string][]byte)
	}
	m.recs[id] = append([]byte(nil), data...)
	return nil
}

func (m *MemStore) Get(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.recs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), data...), nil
}

func (m *MemStore) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.recs))
	for id := range m.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

func (m *MemStore) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.recs, id)
	return nil
}

const snapExt = ".g3snap"

// DirStore is a durable StateStore over a directory: one file per snapshot
// (`<id>.g3snap`), each committed by writeAtomic.
type DirStore struct {
	dir string
	mu  sync.Mutex
}

// NewDirStore opens (creating if needed) a snapshot directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the backing directory path.
func (d *DirStore) Dir() string { return d.dir }

func (d *DirStore) path(id string) (string, error) {
	// IDs become file names; refuse anything that could escape the
	// directory or collide with the temp-file namespace.
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("checkpoint: invalid snapshot id %q", id)
	}
	return filepath.Join(d.dir, id+snapExt), nil
}

func (d *DirStore) Put(id string, data []byte) error {
	dst, err := d.path(id)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := writeAtomic(dst, ".tmp-"+id+"-*", data); err != nil {
		return fmt.Errorf("checkpoint: put %s: %w", id, err)
	}
	return nil
}

// writeAtomic commits data to dst by writing a temporary file named after
// pattern in dst's directory, fsyncing and closing it, and renaming it into
// place — so a crash at any point leaves either the old record or the new
// one, never a torn file. The directory is fsynced after the rename so the
// new name survives a power cut. On failure the temporary file is removed.
func writeAtomic(dst, pattern string, data []byte) error {
	dir := filepath.Dir(dst)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-committed rename is durable. Some
// filesystems refuse to fsync directories; that is not an error, since the
// data is already written. A variable so tests can see the call.
var syncDir = func(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

func (d *DirStore) Get(id string) ([]byte, error) {
	p, err := d.path(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: get %s: %w", id, err)
	}
	return data, nil
}

func (d *DirStore) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, snapExt) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, snapExt))
	}
	sort.Strings(ids)
	return ids, nil
}

func (d *DirStore) Delete(id string) error {
	p, err := d.path(id)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: delete %s: %w", id, err)
	}
	return nil
}

// FileStore is a single-snapshot StateStore over one file path: Put always
// writes the one file (atomically, by writeAtomic), Get and List see
// whatever snapshot it currently holds. It backs the
// `grid3sim -checkpoint-out FILE` / `-restore FILE` surface, where a run
// produces exactly one checkpoint artifact.
type FileStore struct {
	path string
	mu   sync.Mutex
}

// NewFileStore returns a store over the given file path. The file need not
// exist yet.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Path returns the backing file path.
func (f *FileStore) Path() string { return f.path }

func (f *FileStore) Put(id string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := writeAtomic(f.path, "."+filepath.Base(f.path)+".tmp-*", data); err != nil {
		return fmt.Errorf("checkpoint: put %s: %w", f.path, err)
	}
	return nil
}

func (f *FileStore) Get(id string) ([]byte, error) {
	data, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: get %s: %w", f.path, err)
	}
	return data, nil
}

// List reports the held snapshot's ID by decoding the file. An absent file
// lists as empty; an undecodable one is an error — a FileStore holds the
// run's sole snapshot, so unlike DirStore there is no newer record to fall
// back to, and reporting "not found" would hide the corruption.
func (f *FileStore) List() ([]string, error) {
	data, err := os.ReadFile(f.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: list %s: %w", f.path, err)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list %s: %w", f.path, err)
	}
	return []string{snap.ID()}, nil
}

func (f *FileStore) Delete(id string) error {
	if err := os.Remove(f.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: delete %s: %w", f.path, err)
	}
	return nil
}
