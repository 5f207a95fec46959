package gen

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/md"
)

// fixedGrammar loads a machine description with its dynamic rules
// stripped — the grammars the offline generator can tabulate.
func fixedGrammar(t *testing.T, name string) *grammar.Grammar {
	t.Helper()
	d, err := md.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Grammar.StripDynamic()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRoundTrip: encode/decode must reconstitute an automaton that is
// indistinguishable from the in-process generation — same table shape,
// same label for every node of a few hundred random forests.
func TestRoundTrip(t *testing.T) {
	for _, name := range md.Names() {
		g := fixedGrammar(t, name)
		res, err := Compile(g, Config{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		blob := res.Blob
		if res.Stats.BlobBytes != len(blob) || len(blob) == 0 {
			t.Errorf("%s: Stats.BlobBytes = %d, blob %d", g.Name, res.Stats.BlobBytes, len(blob))
		}
		loaded, err := Load(g, bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if loaded.NumStates() != res.Auto.NumStates() || loaded.NumTransitions() != res.Auto.NumTransitions() {
			t.Fatalf("%s: loaded %d states / %d transitions, generated %d / %d",
				g.Name, loaded.NumStates(), loaded.NumTransitions(), res.Auto.NumStates(), res.Auto.NumTransitions())
		}
		for seed := 0; seed < 60; seed++ {
			f := ir.RandomForest(g, ir.RandomConfig{Seed: int64(seed), Trees: 3, MaxDepth: 5, MaxLeafVal: 64})
			want := res.Auto.Label(f, nil, 0)
			got := loaded.Label(f, nil, 0)
			for _, n := range f.Nodes {
				for nt := 0; nt < g.NumNonterms(); nt++ {
					if want.RuleAt(n, grammar.NT(nt)) != got.RuleAt(n, grammar.NT(nt)) {
						t.Fatalf("%s seed %d node %d nt %d: loaded automaton disagrees with generated one",
							g.Name, seed, n.Index, nt)
					}
				}
			}
			res.Auto.ReleaseLabeling(want)
			loaded.ReleaseLabeling(got)
		}
	}
}

// TestEncodeDeterministic: the same grammar must serialize to the same
// bytes every time — the property the committed golden files rely on.
// TestExpandedTableBytesAccounting: the generation-time stat must predict
// exactly what a serving process pays — a loaded blob, expanded into
// direct tables the way preloaded serving does, must report precisely
// Stats.ExpandedTableBytes, and the expansion increment must match
// ExpandBytes. This closes the accounting gap where offline table memory
// was reported pre-expansion only.
func TestExpandedTableBytesAccounting(t *testing.T) {
	for _, name := range md.Names() {
		g := fixedGrammar(t, name)
		res, err := Compile(g, Config{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		// Generate-time automaton stays compact: its footprint is the
		// TableBytes stat, and the expansion increment is its ExpandBytes.
		if got := res.Auto.MemoryBytes(); got != res.Stats.TableBytes {
			t.Errorf("%s: compact footprint %d != Stats.TableBytes %d", g.Name, got, res.Stats.TableBytes)
		}
		predicted := res.Auto.ExpandBytes()
		if res.Stats.ExpandedTableBytes != res.Stats.TableBytes+predicted {
			t.Errorf("%s: Stats.ExpandedTableBytes %d != TableBytes %d + ExpandBytes %d",
				g.Name, res.Stats.ExpandedTableBytes, res.Stats.TableBytes, predicted)
		}
		// A loaded blob is the serving form — NewStaticFromTables expands
		// at load time — so its real footprint must be exactly what the
		// stat predicted at generation time.
		loaded, err := Load(g, bytes.NewReader(res.Blob))
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if got := loaded.MemoryBytes(); got != res.Stats.ExpandedTableBytes {
			t.Errorf("%s: loaded serving footprint %d != Stats.ExpandedTableBytes %d",
				g.Name, got, res.Stats.ExpandedTableBytes)
		}
		if predicted > 0 && res.Stats.ExpandedTableBytes <= res.Stats.TableBytes {
			t.Errorf("%s: ExpandedTableBytes %d not above compact %d despite expandable tables",
				g.Name, res.Stats.ExpandedTableBytes, res.Stats.TableBytes)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := fixedGrammar(t, "x86")
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		res, err := Compile(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, res.Blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("two compilations of one grammar produced different blobs")
	}
	src1, err := GoSource("p", "v", mustResult(t, g))
	if err != nil {
		t.Fatal(err)
	}
	src2, err := GoSource("p", "v", mustResult(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src1, src2) {
		t.Fatal("GoSource output is not deterministic")
	}
}

func mustResult(t *testing.T, g *grammar.Grammar) *Result {
	t.Helper()
	res, err := Compile(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFormatVersions: both live wire versions must round-trip — the v2
// varint/delta form Encode writes and the v1 fixed-width form older
// fleets still ship — decoding to identical table sets, with v2 strictly
// smaller (it is the cluster's wire form; size is the point).
func TestFormatVersions(t *testing.T) {
	check := func(t *testing.T, g *grammar.Grammar, res *Result) {
		v1, err := EncodeBytesV1(g, res.Tables)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := ReadHeader(bytes.NewReader(res.Blob))
		if err != nil {
			t.Fatal(err)
		}
		h1, err := ReadHeader(bytes.NewReader(v1))
		if err != nil {
			t.Fatal(err)
		}
		if h2.Version != 2 || h1.Version != 1 {
			t.Fatalf("versions: blob %d (want 2), fixed-width %d (want 1)", h2.Version, h1.Version)
		}
		if h1.Fingerprint != h2.Fingerprint || h1.States != h2.States {
			t.Fatalf("headers disagree across versions: %+v vs %+v", h1, h2)
		}
		ts2, err := Decode(g, bytes.NewReader(res.Blob))
		if err != nil {
			t.Fatalf("decoding v2: %v", err)
		}
		ts1, err := Decode(g, bytes.NewReader(v1))
		if err != nil {
			t.Fatalf("decoding v1: %v", err)
		}
		if !reflect.DeepEqual(ts1, ts2) {
			t.Fatal("v1 and v2 decode to different table sets")
		}
		if len(res.Blob) >= len(v1) {
			t.Errorf("v2 blob (%d bytes) not smaller than fixed-width v1 (%d bytes)", len(res.Blob), len(v1))
		}
		if res.Stats.BlobBytesFixed != len(v1) {
			t.Errorf("Stats.BlobBytesFixed = %d, v1 encoding is %d bytes", res.Stats.BlobBytesFixed, len(v1))
		}
		// Corruption must be rejected in the v1 path too (the shared
		// content checksum, not the v2 decoder, is the guard).
		bad := append([]byte(nil), v1...)
		bad[len(Magic)+20] ^= 0x40
		if _, err := Decode(g, bytes.NewReader(bad)); err == nil {
			t.Error("Decode accepted a corrupted v1 blob")
		}
	}
	for _, name := range md.Names() {
		t.Run(name+".fixed", func(t *testing.T) {
			g := fixedGrammar(t, name)
			check(t, g, mustResult(t, g))
		})
	}
	// The hybrid fixed-subset closure ships over the same wire: both
	// versions must round-trip it too.
	t.Run("x86.hybrid", func(t *testing.T) {
		g := md.MustLoad("x86").Grammar
		res, err := CompileHybrid(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, g, res)
	})
}

// TestCompileRejectsDynamic: grammars with dynamic rules cannot be
// tabulated offline.
func TestCompileRejectsDynamic(t *testing.T) {
	d := md.MustLoad("x86")
	if _, err := Compile(d.Grammar, Config{}); err == nil {
		t.Fatal("Compile accepted a grammar with dynamic-cost rules")
	}
}

// TestTruncation: a closure pruned by MaxStates must fail with the typed
// diagnostics, never return partial tables.
func TestTruncation(t *testing.T) {
	g := fixedGrammar(t, "x86")
	_, err := Compile(g, Config{MaxStates: 10})
	var trunc *automaton.TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("err = %v, want *automaton.TruncatedError", err)
	}
	if trunc.MaxStates != 10 || trunc.States <= 10 || trunc.PendingWork == 0 {
		t.Errorf("implausible truncation diagnostics: %+v", trunc)
	}
}

// TestDecodeRejects: wrong grammar, corrupt magic, and truncated payloads
// must all be rejected with errors, not garbage tables.
func TestDecodeRejects(t *testing.T) {
	g := fixedGrammar(t, "demo")
	other := fixedGrammar(t, "jit64")
	blob := mustResult(t, g).Blob
	if _, err := Decode(other, bytes.NewReader(blob)); err == nil {
		t.Error("Decode accepted tables generated for a different grammar")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := Decode(g, bytes.NewReader(bad)); err == nil {
		t.Error("Decode accepted a corrupted magic")
	}
	if _, err := Decode(g, bytes.NewReader(blob[:len(blob)-6])); err == nil {
		t.Error("Decode accepted a truncated blob")
	}
	short := append([]byte(nil), blob[:len(blob)-4]...)
	short = append(short, 0xde, 0xad, 0xbe, 0xef)
	if _, err := Decode(g, bytes.NewReader(short)); err == nil {
		t.Error("Decode accepted a blob with a corrupt trailer")
	}
}

// TestLoadRejectsBodyCorruption: bit flips inside the state-vector region
// leave the framing (magic, fingerprint, trailer) intact, so only the
// cost-normalization validation in NewStaticFromTables can catch them —
// a corrupt blob must fail at load, never panic or mislabel at serve
// time.
func TestLoadRejectsBodyCorruption(t *testing.T) {
	g := fixedGrammar(t, "jit64")
	blob := mustResult(t, g).Blob
	// The state vectors start right after the header; flip high bits
	// through that region so deltas go negative or rules leave range.
	start := len(Magic) + 8 + 4 + len(g.Name) + 3*4 + g.NumOps()
	rejected := 0
	const probes = 40
	for i := 0; i < probes; i++ {
		bad := append([]byte(nil), blob...)
		bad[start+i*5] ^= 0x80
		if _, err := Load(g, bytes.NewReader(bad)); err != nil {
			rejected++
		}
	}
	if rejected != probes {
		t.Errorf("only %d/%d corrupt-body probes rejected at load (the content checksum must catch every flip)", rejected, probes)
	}
	// A huge state count with a valid prefix must be rejected before any
	// large allocation (the States*NumNT volume bound).
	bad := append([]byte(nil), blob...)
	pos := len(Magic) + 8 + 4 + len(g.Name) + 8 // the states u32
	bad[pos], bad[pos+1], bad[pos+2] = 0xff, 0xff, 0xfe
	if _, err := Load(g, bytes.NewReader(bad)); err == nil {
		t.Error("Load accepted an implausibly huge state count")
	}
}

// TestHeaderAndRegister: ReadHeader routes blobs without decoding, and
// the preload store rejects duplicate fingerprints.
func TestHeaderAndRegister(t *testing.T) {
	g := fixedGrammar(t, "demo")
	blob := mustResult(t, g).Blob
	h, err := ReadHeader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Grammar != g.Name || h.Fingerprint != Fingerprint(g) || h.States == 0 {
		t.Fatalf("bad header %+v", h)
	}
	if _, err := Register(blob); err != nil {
		t.Fatal(err)
	}
	if got, ok := Lookup(h.Fingerprint); !ok || !bytes.Equal(got, blob) {
		t.Fatal("registered blob not found by fingerprint")
	}
	if _, err := Register(blob); err == nil {
		t.Fatal("Register accepted a duplicate fingerprint")
	}
}
