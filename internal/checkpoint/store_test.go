package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func snapAt(t time.Duration, digest uint64) *Snapshot {
	return &Snapshot{Scope: ScopeBatch, SimTime: t, Digest: digest, Config: []byte(`{}`)}
}

// Exercise both generic backends through the interface so they stay
// behaviorally interchangeable.
func runStoreSuite(t *testing.T, st StateStore) {
	t.Helper()
	if _, err := st.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := st.Delete("missing"); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil", err)
	}
	if _, _, err := Latest(st); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest(empty) = %v, want ErrNotFound", err)
	}

	s1, s2, s3 := snapAt(time.Hour, 1), snapAt(2*time.Hour, 2), snapAt(3*time.Hour, 3)
	for _, s := range []*Snapshot{s2, s1, s3} { // out of order on purpose
		if _, err := Save(st, s); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	ids, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := []string{s1.ID(), s2.ID(), s3.ID()}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("List = %v, want %v (sorted chronological)", ids, want)
	}

	got, err := Load(st, s2.ID())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.SimTime != s2.SimTime || got.Digest != s2.Digest {
		t.Fatalf("Load(s2) = %+v", got)
	}

	latest, id, err := Latest(st)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if id != s3.ID() || latest.SimTime != s3.SimTime {
		t.Fatalf("Latest = %s, want %s", id, s3.ID())
	}

	// Overwriting an existing ID replaces the record.
	if err := st.Put(s1.ID(), Encode(s1)); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}

	if err := Prune(st, 2); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	ids, _ = st.List()
	if !reflect.DeepEqual(ids, []string{s2.ID(), s3.ID()}) {
		t.Fatalf("after Prune(2): %v", ids)
	}
	if err := Prune(st, 0); err != nil { // clamps to keep=1
		t.Fatalf("Prune(0): %v", err)
	}
	ids, _ = st.List()
	if !reflect.DeepEqual(ids, []string{s3.ID()}) {
		t.Fatalf("after Prune(0): %v, want newest only", ids)
	}

	if err := st.Delete(s3.ID()); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if ids, _ := st.List(); len(ids) != 0 {
		t.Fatalf("store not empty after delete: %v", ids)
	}
}

func TestMemStore(t *testing.T) { runStoreSuite(t, NewMemStore()) }

func TestMemStoreZeroValue(t *testing.T) { runStoreSuite(t, &MemStore{}) }

func TestMemStoreCopiesData(t *testing.T) {
	st := NewMemStore()
	buf := []byte{1, 2, 3}
	if err := st.Put("a", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 9
	got, err := st.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("Put aliased caller buffer")
	}
	got[1] = 9
	again, _ := st.Get("a")
	if again[1] != 2 {
		t.Fatal("Get aliased stored buffer")
	}
}

func TestDirStore(t *testing.T) {
	st, err := NewDirStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	runStoreSuite(t, st)
}

func TestDirStoreRejectsPathEscapes(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", `a\b`, ".hidden"} {
		if err := st.Put(id, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", id)
		}
		if _, err := st.Get(id); err == nil {
			t.Fatalf("Get(%q) accepted", id)
		}
	}
}

// A foreign or torn file in the directory must not break listing, and
// Latest must skip undecodable records and fall back to the newest good one.
func TestDirStoreLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := snapAt(time.Hour, 7)
	if _, err := Save(st, good); err != nil {
		t.Fatal(err)
	}
	bad := snapAt(2*time.Hour, 8)
	enc := Encode(bad)
	// Simulate a torn write on a non-atomic medium: truncated record
	// under a valid snapshot name.
	if err := os.WriteFile(filepath.Join(dir, bad.ID()+snapExt), enc[:len(enc)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Foreign files are invisible to List.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("List = %v", ids)
	}
	snap, id, err := Latest(st)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if id != good.ID() || snap.Digest != good.Digest {
		t.Fatalf("Latest picked %s, want %s", id, good.ID())
	}
}

func TestDirStoreLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-1-1"+snapExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(st); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest = %v, want ErrNotFound", err)
	}
}

// The committed file must always be a complete record: Put goes through a
// temp file + rename, and no temp droppings survive a successful commit.
func TestDirStorePutAtomicNoDroppings(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapAt(time.Hour, 1)
	if _, err := Save(st, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != snap.ID()+snapExt {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after Put: %v", names)
	}
	if _, err := Load(st, snap.ID()); err != nil {
		t.Fatalf("committed record unreadable: %v", err)
	}
}

// Both durable stores fsync the directory after the rename, so a power cut
// right after a Put cannot lose the new name.
func TestPutSyncsDirectory(t *testing.T) {
	var synced []string
	orig := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}
	defer func() { syncDir = orig }()

	dir := t.TempDir()
	ds, err := NewDirStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		st  StateStore
		dir string
	}{
		{ds, ds.Dir()},
		{NewFileStore(filepath.Join(dir, "run.g3snap")), dir},
	} {
		synced = nil
		if _, err := Save(tc.st, snapAt(time.Hour, 1)); err != nil {
			t.Fatal(err)
		}
		if len(synced) != 1 || synced[0] != tc.dir {
			t.Errorf("%T.Put synced directories %v, want [%s]", tc.st, synced, tc.dir)
		}
	}
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.g3snap")
	st := NewFileStore(path)
	if st.Path() != path {
		t.Fatal("Path")
	}
	if _, err := st.Get("any"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on absent file = %v", err)
	}
	if ids, err := st.List(); err != nil || len(ids) != 0 {
		t.Fatalf("List on absent file = %v, %v", ids, err)
	}
	snap := snapAt(5*time.Hour, 11)
	if _, err := Save(st, snap); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != snap.ID() {
		t.Fatalf("List = %v, %v", ids, err)
	}
	got, _, err := Latest(st)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if got.SimTime != snap.SimTime {
		t.Fatalf("Latest = %+v", got)
	}
	// Second Put replaces the single slot.
	next := snapAt(6*time.Hour, 12)
	if _, err := Save(st, next); err != nil {
		t.Fatal(err)
	}
	got, _, err = Latest(st)
	if err != nil || got.SimTime != next.SimTime {
		t.Fatalf("after replace: %+v, %v", got, err)
	}
	if err := st.Delete(""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("file survives Delete")
	}

	// A corrupt sole snapshot must surface as corruption — there is no
	// newer record to fall back to, and "not found" would hide the damage.
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.List(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("List over a corrupt file = %v, want ErrCorrupt", err)
	}
	if _, _, err := Latest(st); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Latest over a corrupt file = %v, want ErrCorrupt", err)
	}
}
