package inet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
)

// Binary world snapshots let campaigns spill a synthesized world to disk
// once and stream it back on every subsequent run instead of re-generating
// it — the whole point of the huge tier, where synthesis costs seconds and
// a campaign may build the world once per epoch.
//
// Format (all integers little-endian):
//
//	magic   "OFNW"
//	version u32 (currently 1)
//	hash    string  — scenario spec hash the world was built for ("" = none)
//	config  the output-affecting Config fields, in declaration order
//	counts  u32 ISPs, u32 facilities, u32 IXPs, u32 hostNext entries
//	body    ISP records, facility records, IXP records, hostNext pairs,
//	        each section in ascending-ID order
//	footer  "WNFO"
//
// Strings are u16 length + bytes. Prefixes are u32 base address + u8 bits.
// The config echo deliberately omits Shards and GenWorkers: both are
// output-invariant, so a snapshot written with -shards 16 must load under
// -shards 4. Loading validates magic, version, scenario hash, and the
// config echo; any mismatch is a hard error (the runsdiff drift contract:
// silently analyzing the wrong world is worse than failing).

// Snapshot format errors. ReadWorldFile wraps these, so callers can match
// with errors.Is.
var (
	// ErrSnapshotCorrupt marks truncated files, bad magic, or garbled data.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")
	// ErrSnapshotVersion marks a version this build cannot read.
	ErrSnapshotVersion = errors.New("unsupported snapshot version")
	// ErrSnapshotMismatch marks a snapshot built for a different scenario
	// hash or world config than the run asked for.
	ErrSnapshotMismatch = errors.New("snapshot does not match requested world")
)

const (
	snapMagic       = "OFNW"
	snapFooter      = "WNFO"
	snapVersion     = 1
	snapMaxStrLen   = 1 << 15
	snapMaxEntities = 1 << 27 // sanity bound on section counts
)

// binWriter wraps a buffered writer with sticky-error little-endian
// primitives, so encoding code reads as a flat field list.
type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) raw(p []byte) {
	if b.err == nil {
		_, b.err = b.w.Write(p)
	}
}

func (b *binWriter) u8(v uint8)   { b.raw([]byte{v}) }
func (b *binWriter) u16(v uint16) { b.raw(binary.LittleEndian.AppendUint16(nil, v)) }
func (b *binWriter) u32(v uint32) { b.raw(binary.LittleEndian.AppendUint32(nil, v)) }
func (b *binWriter) u64(v uint64) { b.raw(binary.LittleEndian.AppendUint64(nil, v)) }
func (b *binWriter) f64(v float64) {
	b.u64(math.Float64bits(v))
}

func (b *binWriter) str(s string) {
	if len(s) >= snapMaxStrLen {
		if b.err == nil {
			b.err = fmt.Errorf("string too long (%d bytes)", len(s))
		}
		return
	}
	b.u16(uint16(len(s)))
	b.raw([]byte(s))
}

func (b *binWriter) prefix(p netaddr.Prefix) {
	b.u32(uint32(p.Addr))
	b.u8(uint8(p.Bits))
}

// binReader mirrors binWriter for decoding.
type binReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (b *binReader) raw(n int) []byte {
	if b.err != nil {
		return b.buf[:n]
	}
	if _, err := io.ReadFull(b.r, b.buf[:n]); err != nil {
		b.err = fmt.Errorf("%w: unexpected end of file", ErrSnapshotCorrupt)
	}
	return b.buf[:n]
}

func (b *binReader) u8() uint8   { return b.raw(1)[0] }
func (b *binReader) u16() uint16 { return binary.LittleEndian.Uint16(b.raw(2)) }
func (b *binReader) u32() uint32 { return binary.LittleEndian.Uint32(b.raw(4)) }
func (b *binReader) u64() uint64 { return binary.LittleEndian.Uint64(b.raw(8)) }
func (b *binReader) f64() float64 {
	return math.Float64frombits(b.u64())
}

func (b *binReader) str() string {
	n := int(b.u16())
	if b.err != nil {
		return ""
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(b.r, p); err != nil {
		b.err = fmt.Errorf("%w: unexpected end of file", ErrSnapshotCorrupt)
		return ""
	}
	return string(p)
}

func (b *binReader) prefix() netaddr.Prefix {
	addr := netaddr.Addr(b.u32())
	bits := int(b.u8())
	return netaddr.Prefix{Addr: addr, Bits: bits}
}

func (b *binReader) count() int {
	n := b.u32()
	if b.err == nil && n > snapMaxEntities {
		b.err = fmt.Errorf("%w: implausible count %d", ErrSnapshotCorrupt, n)
	}
	return int(n)
}

// snapshotConfig reduces a Config to the fields that determine the world's
// bytes: equal snapshotConfigs generate byte-identical worlds. Shards and
// GenWorkers are parallelism knobs, not world parameters.
func snapshotConfig(c Config) Config {
	c = c.sanitized()
	c.Shards, c.GenWorkers = 0, 0
	return c
}

func (b *binWriter) config(c Config) {
	c = snapshotConfig(c)
	b.u64(uint64(c.Seed))
	b.u32(uint32(c.AccessISPs))
	b.u32(uint32(c.TransitISPs))
	b.u32(uint32(c.Backbones))
	b.u32(uint32(c.IXPs))
	b.f64(c.TotalUsers)
	b.f64(c.ZipfExponent)
	b.f64(c.UsersPerSlash24)
	if c.Sharded {
		b.u8(1)
	} else {
		b.u8(0)
	}
}

func (b *binReader) config() Config {
	var c Config
	c.Seed = int64(b.u64())
	c.AccessISPs = int(b.u32())
	c.TransitISPs = int(b.u32())
	c.Backbones = int(b.u32())
	c.IXPs = int(b.u32())
	c.TotalUsers = b.f64()
	c.ZipfExponent = b.f64()
	c.UsersPerSlash24 = b.f64()
	c.Sharded = b.u8() == 1
	return c
}

// WriteWorld streams the world to wr in the binary snapshot format, tagged
// with the config that generated it and the scenario hash it serves (""
// when the run has no scenario). Sections stream in ascending-ID order.
func WriteWorld(wr io.Writer, w *World, cfg Config, scenarioHash string) error {
	b := &binWriter{w: bufio.NewWriterSize(wr, 1<<20)}
	b.raw([]byte(snapMagic))
	b.u32(snapVersion)
	b.str(scenarioHash)
	b.config(cfg)

	isps := w.ISPList()
	facs := w.FacilityList()
	ixps := w.IXPList()
	hostASNs := make([]ASN, 0, len(w.hostNext))
	for as, n := range w.hostNext {
		if n > 0 {
			hostASNs = append(hostASNs, as)
		}
	}
	sortASNs(hostASNs)

	b.u32(uint32(len(isps)))
	b.u32(uint32(len(facs)))
	b.u32(uint32(len(ixps)))
	b.u32(uint32(len(hostASNs)))

	for _, isp := range isps {
		b.u32(uint32(isp.ASN))
		b.str(isp.Name)
		b.str(isp.Country)
		b.u8(uint8(isp.Tier))
		b.f64(isp.Users)
		b.u32(uint32(len(isp.Metros)))
		for _, m := range isp.Metros {
			b.str(m.Code)
		}
		b.u32(uint32(len(isp.Prefixes)))
		for _, p := range isp.Prefixes {
			b.prefix(p)
		}
		b.u32(uint32(len(isp.Providers)))
		for _, p := range isp.Providers {
			b.u32(uint32(p))
		}
		b.u32(uint32(len(isp.IXPs)))
		for _, x := range isp.IXPs {
			b.u32(uint32(x))
		}
		b.u32(uint32(len(isp.Facilities)))
		for _, f := range isp.Facilities {
			b.u32(uint32(f))
		}
	}
	for _, f := range facs {
		b.u32(uint32(f.ID))
		b.u32(uint32(f.Owner))
		b.str(f.Metro.Code)
		b.f64(f.Loc.LatDeg)
		b.f64(f.Loc.LonDeg)
		b.u32(uint32(f.Racks))
	}
	for _, x := range ixps {
		b.u32(uint32(x.ID))
		b.str(x.Name)
		b.str(x.Metro.Code)
		b.prefix(x.Fabric)
		b.f64(x.CapacityGbps)
		members := x.Members()
		b.u32(uint32(len(members)))
		for _, as := range members {
			b.u32(uint32(as))
			b.u32(uint32(x.MemberAddr[as]))
		}
	}
	for _, as := range hostASNs {
		b.u32(uint32(as))
		b.u64(w.hostNext[as])
	}
	b.raw([]byte(snapFooter))
	if b.err != nil {
		return fmt.Errorf("inet: write snapshot: %w", b.err)
	}
	if err := b.w.Flush(); err != nil {
		return fmt.Errorf("inet: write snapshot: %w", err)
	}
	return nil
}

// WriteWorldFile writes the snapshot to path atomically (temp file in the
// same directory, then rename), creating parent directories as needed.
func WriteWorldFile(path string, w *World, cfg Config, scenarioHash string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("inet: write snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("inet: write snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteWorld(tmp, w, cfg, scenarioHash); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("inet: write snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("inet: write snapshot: %w", err)
	}
	return nil
}

// ReadWorld streams a world back from rd, validating that the snapshot was
// written for the requested config and scenario hash. Validation failures
// are hard errors wrapping ErrSnapshotVersion or ErrSnapshotMismatch — a
// stale or foreign snapshot must stop the run, exactly like manifest drift
// does, because every downstream number would silently describe the wrong
// world.
func ReadWorld(rd io.Reader, want Config, scenarioHash string) (*World, error) {
	b := &binReader{r: bufio.NewReaderSize(rd, 1<<20)}
	if string(b.raw(4)) != snapMagic && b.err == nil {
		return nil, fmt.Errorf("inet: read snapshot: %w: bad magic", ErrSnapshotCorrupt)
	}
	if v := b.u32(); b.err == nil && v != snapVersion {
		return nil, fmt.Errorf("inet: read snapshot: %w: got v%d, this build reads v%d", ErrSnapshotVersion, v, snapVersion)
	}
	gotHash := b.str()
	gotCfg := b.config()
	if b.err != nil {
		return nil, fmt.Errorf("inet: read snapshot: %w", b.err)
	}
	if gotHash != scenarioHash {
		return nil, fmt.Errorf("inet: read snapshot: %w: snapshot scenario hash %q, run wants %q",
			ErrSnapshotMismatch, gotHash, scenarioHash)
	}
	if gotCfg != snapshotConfig(want) {
		return nil, fmt.Errorf("inet: read snapshot: %w: snapshot config %+v, run wants %+v",
			ErrSnapshotMismatch, gotCfg, snapshotConfig(want))
	}

	nISPs, nFacs, nIXPs, nHosts := b.count(), b.count(), b.count(), b.count()
	if b.err != nil {
		return nil, fmt.Errorf("inet: read snapshot: %w", b.err)
	}

	w := &World{
		Seed:       gotCfg.Seed,
		ISPs:       make(map[ASN]*ISP, nISPs),
		Facilities: make(map[FacilityID]*Facility, nFacs),
		IXPs:       make(map[IXPID]*IXP, nIXPs),
		hostNext:   make(map[ASN]uint64, nHosts),
	}
	w.isps.Reserve(nISPs)
	w.facs.Reserve(nFacs)
	w.owners = make([]ownerSpan, 0, nISPs)

	metroCache := make(map[string]geo.Metro, 128)
	metro := func(code string) (geo.Metro, error) {
		if m, ok := metroCache[code]; ok {
			return m, nil
		}
		m, ok := geo.MetroByCode(code)
		if !ok {
			return geo.Metro{}, fmt.Errorf("%w: unknown metro %q", ErrSnapshotCorrupt, code)
		}
		metroCache[code] = m
		return m, nil
	}

	var maxISP, maxContent, maxIXP netaddr.Addr
	for i := 0; i < nISPs && b.err == nil; i++ {
		isp := w.isps.Get()
		isp.ASN = ASN(b.u32())
		isp.Name = b.str()
		isp.Country = b.str()
		isp.Tier = Tier(b.u8())
		isp.Users = b.f64()
		if n := b.count(); n > 0 {
			isp.Metros = make([]geo.Metro, 0, n)
			for j := 0; j < n && b.err == nil; j++ {
				m, err := metro(b.str())
				if err != nil {
					b.err = err
					break
				}
				isp.Metros = append(isp.Metros, m)
			}
		}
		if n := b.count(); n > 0 {
			isp.Prefixes = make([]netaddr.Prefix, 0, n)
			for j := 0; j < n && b.err == nil; j++ {
				p := b.prefix()
				if p != p.Canonical() {
					b.err = fmt.Errorf("%w: non-canonical prefix %v", ErrSnapshotCorrupt, p)
					break
				}
				isp.Prefixes = append(isp.Prefixes, p)
				w.registerOwner(p.First(), p.Last(), isp.ASN)
				if isp.Tier == TierContent {
					if p.Last() > maxContent {
						maxContent = p.Last()
					}
				} else if p.Last() > maxISP {
					maxISP = p.Last()
				}
			}
		}
		if n := b.count(); n > 0 {
			isp.Providers = make([]ASN, 0, n)
			for j := 0; j < n; j++ {
				isp.Providers = append(isp.Providers, ASN(b.u32()))
			}
		}
		if n := b.count(); n > 0 {
			isp.IXPs = make([]IXPID, 0, n)
			for j := 0; j < n; j++ {
				isp.IXPs = append(isp.IXPs, IXPID(b.u32()))
			}
		}
		if n := b.count(); n > 0 {
			isp.Facilities = make([]FacilityID, 0, n)
			for j := 0; j < n; j++ {
				isp.Facilities = append(isp.Facilities, FacilityID(b.u32()))
			}
		}
		w.ISPs[isp.ASN] = isp
	}
	for i := 0; i < nFacs && b.err == nil; i++ {
		f := w.facs.Get()
		f.ID = FacilityID(b.u32())
		f.Owner = ASN(b.u32())
		m, err := metro(b.str())
		if err != nil {
			b.err = err
			break
		}
		f.Metro = m
		f.Loc = geo.Point{LatDeg: b.f64(), LonDeg: b.f64()}
		f.Racks = int(b.u32())
		w.Facilities[f.ID] = f
	}
	for i := 0; i < nIXPs && b.err == nil; i++ {
		x := &IXP{ID: IXPID(b.u32())}
		x.Name = b.str()
		m, err := metro(b.str())
		if err != nil {
			b.err = err
			break
		}
		x.Metro = m
		x.Fabric = b.prefix()
		x.CapacityGbps = b.f64()
		n := b.count()
		x.MemberAddr = make(map[ASN]netaddr.Addr, n)
		for j := 0; j < n && b.err == nil; j++ {
			as := ASN(b.u32())
			x.MemberAddr[as] = netaddr.Addr(b.u32())
		}
		if x.Fabric.Last() > maxIXP {
			maxIXP = x.Fabric.Last()
		}
		w.IXPs[x.ID] = x
	}
	for i := 0; i < nHosts && b.err == nil; i++ {
		as := ASN(b.u32())
		w.hostNext[as] = b.u64()
	}
	if b.err == nil && string(b.raw(4)) != snapFooter && b.err == nil {
		b.err = fmt.Errorf("%w: missing footer", ErrSnapshotCorrupt)
	}
	if b.err != nil {
		return nil, fmt.Errorf("inet: read snapshot: %w", b.err)
	}

	w.ispPool = restoredPool("16.0.0.0/4", maxISP)
	w.contentPool = restoredPool("8.0.0.0/9", maxContent)
	w.ixpPool = restoredPool("198.32.0.0/13", maxIXP)
	w.finalize()
	return w, nil
}

// restoredPool returns a pool over base whose cursor is past lastUsed.
func restoredPool(base string, lastUsed netaddr.Addr) *netaddr.Pool {
	pool := netaddr.NewPool(netaddr.MustPrefix(base))
	if lastUsed != 0 {
		pool.AdvancePast(lastUsed)
	}
	return pool
}

// ReadWorldFile loads a snapshot written by WriteWorldFile.
func ReadWorldFile(path string, want Config, scenarioHash string) (*World, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inet: read snapshot: %w", err)
	}
	defer f.Close()
	w, err := ReadWorld(f, want, scenarioHash)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return w, nil
}

// LoadOrGenerate is the campaign entry point for snapshot-backed worlds:
// with an empty path it just generates; with a path it streams the snapshot
// back if present (hard-erroring on any mismatch) and otherwise generates
// the world once and spills it for the next run. The returned bool reports
// whether the world came from disk.
func LoadOrGenerate(path string, cfg Config, scenarioHash string) (*World, bool, error) {
	if path == "" {
		return Generate(cfg), false, nil
	}
	if _, err := os.Stat(path); err == nil {
		w, err := ReadWorldFile(path, cfg, scenarioHash)
		if err != nil {
			return nil, false, err
		}
		return w, true, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, false, fmt.Errorf("inet: read snapshot: %w", err)
	}
	w := Generate(cfg)
	if err := WriteWorldFile(path, w, cfg, scenarioHash); err != nil {
		return nil, false, err
	}
	return w, false, nil
}

// sortASNs sorts in place, ascending.
func sortASNs(s []ASN) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
