package inet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sameWorld fails the test unless got holds the same ISPs, facilities,
// exchanges and host allocation cursors as want, compared field by field
// in memory rather than through any encoding of either world.
func sameWorld(t *testing.T, want, got *World) {
	t.Helper()
	for _, part := range []struct {
		name      string
		want, got any
	}{
		{"ISPs", want.ISPs, got.ISPs},
		{"facilities", want.Facilities, got.Facilities},
		{"IXPs", want.IXPs, got.IXPs},
		{"host cursors", want.hostNext, got.hostNext},
	} {
		if !reflect.DeepEqual(part.want, part.got) {
			t.Fatalf("%s differ", part.name)
		}
	}
}

func TestSnapshotBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"legacy-tiny", TinyConfig(42)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := Generate(tc.cfg)
			// Post-generation state must survive: content AS + host cursors.
			if _, err := w.AddContentAS("hg-snap", nil, 4); err != nil {
				t.Fatal(err)
			}
			isp := w.AccessISPs()[0]
			for i := 0; i < 3; i++ {
				if _, err := w.AllocHostIn(isp.ASN); err != nil {
					t.Fatal(err)
				}
			}

			path := filepath.Join(t.TempDir(), "world.ofnw")
			if err := WriteWorldFile(path, w, tc.cfg, "hash-abc"); err != nil {
				t.Fatal(err)
			}
			r, err := ReadWorldFile(path, tc.cfg, "hash-abc")
			if err != nil {
				t.Fatal(err)
			}
			sameWorld(t, w, r)
			// Restored pools keep allocating without collision.
			a1, err := w.AllocHostIn(isp.ASN)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := r.AllocHostIn(isp.ASN)
			if err != nil {
				t.Fatal(err)
			}
			if a1 != a2 {
				t.Fatalf("restored host cursor diverged: %v vs %v", a1, a2)
			}
			// The restored content pool hands out space no ISP announces.
			as, err := r.AddContentAS("hg-after", nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			fresh := r.ISPs[as].Prefixes[0]
			for _, isp := range r.ISPList() {
				for _, p := range isp.Prefixes {
					if isp.ASN != as && p.Overlaps(fresh) {
						t.Fatalf("restored content allocation %s overlaps %s of %s", fresh, p, isp.Name)
					}
				}
			}
		})
	}
}

func TestSnapshotRejection(t *testing.T) {
	cfg := TinyConfig(42)
	w := Generate(cfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.ofnw")
	if err := WriteWorldFile(path, w, cfg, "hash-abc"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{3, 10, len(data) / 2, len(data) - 1} {
			_, err := ReadWorld(bytes.NewReader(data[:cut]), cfg, "hash-abc")
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("truncated at %d: got %v, want ErrSnapshotCorrupt", cut, err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), data[4:]...)
		if _, err := ReadWorld(bytes.NewReader(bad), cfg, "hash-abc"); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		// v1 carried a builder byte after the config echo; it must fail on
		// its version, never misparse.
		for _, v := range []uint32{1, 99} {
			bad := bytes.Clone(data)
			binary.LittleEndian.PutUint32(bad[4:8], v)
			if _, err := ReadWorld(bytes.NewReader(bad), cfg, "hash-abc"); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("v%d: got %v, want ErrSnapshotVersion", v, err)
			}
		}
	})
	t.Run("scenario-hash-mismatch", func(t *testing.T) {
		if _, err := ReadWorldFile(path, cfg, "hash-other"); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("config-mismatch", func(t *testing.T) {
		other := cfg
		other.AccessISPs++
		if _, err := ReadWorldFile(path, other, "hash-abc"); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
}

func TestLoadOrGenerate(t *testing.T) {
	cfg := TinyConfig(42)
	path := filepath.Join(t.TempDir(), "sub", "world.ofnw")

	w1, fromDisk, err := LoadOrGenerate(path, cfg, "h")
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk {
		t.Fatal("first call claimed a disk hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not spilled: %v", err)
	}

	w2, fromDisk, err := LoadOrGenerate(path, cfg, "h")
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk {
		t.Fatal("second call regenerated instead of streaming the snapshot")
	}
	sameWorld(t, w1, w2)

	// A stale snapshot (different scenario hash) is a hard error, not a
	// silent regenerate.
	if _, _, err := LoadOrGenerate(path, cfg, "other"); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("stale snapshot: got %v, want ErrSnapshotMismatch", err)
	}

	// Empty path: plain generation, nothing written.
	w3, fromDisk, err := LoadOrGenerate("", cfg, "h")
	if err != nil || fromDisk {
		t.Fatalf("empty path: err=%v fromDisk=%v", err, fromDisk)
	}
	sameWorld(t, w1, w3)
}
