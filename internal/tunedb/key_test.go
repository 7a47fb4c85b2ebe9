package tunedb

import (
	"strings"
	"testing"

	"autotune/internal/irparse"
	"autotune/internal/kernels"
	"autotune/internal/skeleton"
)

func TestKeyStringAndTransferable(t *testing.T) {
	k := testKey()
	s := k.String()
	if got := strings.Count(s, "|"); got != 3 {
		t.Fatalf("canonical key %q has %d separators", s, got)
	}
	if !strings.HasPrefix(s, k.Fingerprint+"|") {
		t.Fatalf("key string %q does not lead with the fingerprint", s)
	}
	if ks, prefix := renderKeyStrings(k); ks != s || prefix != evalStoreKey(s, "") {
		t.Fatalf("renderKeyStrings = %q, %q; want %q, %q", ks, prefix, s, evalStoreKey(s, ""))
	}

	other := k
	other.MachineSig = "elsewhere"
	if !k.Transferable(other) {
		t.Fatal("machine-only difference must stay transferable")
	}
	for _, mutate := range []func(*Key){
		func(o *Key) { o.Fingerprint = "x" },
		func(o *Key) { o.Objectives = "x" },
		func(o *Key) { o.SpaceHash = "x" },
	} {
		o := k
		mutate(&o)
		if k.Transferable(o) {
			t.Fatalf("key %+v transferable to %+v", k, o)
		}
	}
}

func TestObjectiveKey(t *testing.T) {
	if got := ObjectiveKey([]string{"time", "resources"}); got != "time+resources" {
		t.Fatalf("ObjectiveKey = %q", got)
	}
	if got := ObjectiveKey(nil); got != "" {
		t.Fatalf("ObjectiveKey(nil) = %q", got)
	}
}

func TestSpaceHash(t *testing.T) {
	s1 := testSpace()
	if SpaceHash(s1) != SpaceHash(testSpace()) {
		t.Fatal("equal spaces hash differently")
	}
	if !strings.HasPrefix(SpaceHash(s1), "sp") {
		t.Fatalf("SpaceHash = %q", SpaceHash(s1))
	}
	wider := testSpace()
	wider.Params[0].Max = 256
	if SpaceHash(s1) == SpaceHash(wider) {
		t.Fatal("bound change not reflected in space hash")
	}
	renamed := testSpace()
	renamed.Params[0].Name = "tile1"
	if SpaceHash(s1) == SpaceHash(renamed) {
		t.Fatal("name change not reflected in space hash")
	}
	rekind := testSpace()
	rekind.Params[0].Kind = skeleton.UnrollFactor
	if SpaceHash(s1) == SpaceHash(rekind) {
		t.Fatal("kind change not reflected in space hash")
	}
}

func TestProgramFingerprint(t *testing.T) {
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	p1 := mm.IR(512)
	p2 := mm.IR(512)
	if ProgramFingerprint(p1) != ProgramFingerprint(p2) {
		t.Fatal("identical programs fingerprint differently")
	}
	if ProgramFingerprint(p1) == ProgramFingerprint(mm.IR(1024)) {
		t.Fatal("problem size not reflected in fingerprint")
	}
	if ProgramFingerprint(p1) == ProgramFingerprint(p1, "measured") {
		t.Fatal("extra components not mixed into fingerprint")
	}
	if !strings.HasPrefix(ProgramFingerprint(nil), "pg") {
		t.Fatalf("fingerprint = %q", ProgramFingerprint(nil))
	}

	// Kernels with non-identifier names (jacobi-2d) cannot round-trip
	// through the text renderer; the fingerprint must still be derived
	// (falling back to the program name) and stay deterministic.
	jac, err := kernels.ByName("jacobi-2d")
	if err != nil {
		t.Fatal(err)
	}
	jp := jac.IR(256)
	if _, err := irparse.Render(jp); err == nil {
		t.Skip("jacobi-2d now renders; fallback path untestable here")
	}
	if ProgramFingerprint(jp) != ProgramFingerprint(jac.IR(256)) {
		t.Fatal("fallback fingerprint not deterministic")
	}
	if ProgramFingerprint(jp) == ProgramFingerprint(nil) {
		t.Fatal("fallback fingerprint ignores the program")
	}
}
