package obs

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"strings"
	"testing"
)

// refHashID is the readable hash/fnv construction the inlined hashID must
// reproduce byte-for-byte: minted IDs are wire- and ledger-visible, so the
// hot-path inlining may never change them.
func refHashID(seed int64, parts ...string) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	return hex.EncodeToString(sum[:])
}

func TestHashIDMatchesFNVReference(t *testing.T) {
	cases := [][]string{{}, {"a"}, {"bofl-round-trace", "7"}, {"ab", "c"}, {"a", "bc"}, {"x", "", "y"}}
	for _, seed := range []int64{0, 1, -5, 20260806} {
		for _, parts := range cases {
			if got, want := hashID(seed, parts...), refHashID(seed, parts...); got != want {
				t.Fatalf("hashID(%d, %q) = %s, want %s", seed, parts, got, want)
			}
		}
	}
}

func TestMintTraceDeterministic(t *testing.T) {
	a := MintTrace(42, 7)
	b := MintTrace(42, 7)
	if a != b {
		t.Fatalf("MintTrace not deterministic: %+v vs %+v", a, b)
	}
	if !a.Valid() {
		t.Fatalf("minted context invalid: %+v", a)
	}
	if MintTrace(42, 8) == a {
		t.Error("different rounds minted identical contexts")
	}
	if MintTrace(43, 7) == a {
		t.Error("different seeds minted identical contexts")
	}
}

func TestChildDeterministicAndScoped(t *testing.T) {
	root := MintTrace(1, 1)
	c1 := root.Child("attempt", "cli-0", "0")
	c2 := root.Child("attempt", "cli-0", "0")
	if c1 != c2 {
		t.Fatal("Child not deterministic")
	}
	if c1.TraceID != root.TraceID {
		t.Errorf("child left the trace: %s vs %s", c1.TraceID, root.TraceID)
	}
	if c1.SpanID == root.SpanID {
		t.Error("child reused the parent span ID")
	}
	if root.Child("attempt", "cli-0", "1") == c1 {
		t.Error("different attempts derived identical spans")
	}
	// Separator soundness: concatenation ambiguity must not collide.
	if root.Child("ab", "c") == root.Child("a", "bc") {
		t.Error(`Child("ab","c") collided with Child("a","bc")`)
	}
	// Children of the invalid context stay invalid.
	if got := (TraceContext{}).Child("x"); got.Valid() {
		t.Errorf("invalid parent produced valid child %+v", got)
	}
}

func TestTraceContextValidation(t *testing.T) {
	valid := MintTrace(9, 3)
	cases := []struct {
		name string
		tc   TraceContext
		ok   bool
	}{
		{"minted", valid, true},
		{"zero", TraceContext{}, false},
		{"short", TraceContext{TraceID: "abc", SpanID: valid.SpanID}, false},
		{"uppercase", TraceContext{TraceID: strings.ToUpper(valid.TraceID), SpanID: valid.SpanID}, false},
		{"nonhex", TraceContext{TraceID: "zzzzzzzzzzzzzzzz", SpanID: valid.SpanID}, false},
		{"oversized", TraceContext{TraceID: strings.Repeat("a", 1<<16), SpanID: valid.SpanID}, false},
		{"injection", TraceContext{TraceID: `a"}\n# HELP evil`, SpanID: valid.SpanID}, false},
	}
	for _, c := range cases {
		if got := c.tc.Valid(); got != c.ok {
			t.Errorf("%s: Valid() = %v, want %v", c.name, got, c.ok)
		}
		s := c.tc.Sanitized()
		if c.ok && s != c.tc {
			t.Errorf("%s: Sanitized mangled a valid context", c.name)
		}
		if !c.ok && s != (TraceContext{}) {
			t.Errorf("%s: Sanitized let a hostile context through: %+v", c.name, s)
		}
	}
}

func TestTraceContextHeaderRoundtrip(t *testing.T) {
	tc := MintTrace(123, 45)
	s := tc.String()
	if len(s) != 2*idHexLen+1 {
		t.Fatalf("header form %q has length %d", s, len(s))
	}
	back, ok := ParseTraceContext(s)
	if !ok || back != tc {
		t.Fatalf("roundtrip %q -> %+v ok=%v, want %+v", s, back, ok, tc)
	}
	for _, bad := range []string{
		"", "-", "notahexstringatall-notahexstringatal",
		tc.TraceID, tc.TraceID + ":" + tc.SpanID,
		tc.TraceID + "-" + tc.SpanID + "-extra",
		strings.Repeat("a", 4096),
	} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext accepted %q", bad)
		}
	}
	if (TraceContext{TraceID: "x", SpanID: "y"}).String() != "" {
		t.Error("invalid context rendered a header")
	}
}

func TestSpanAndChildLabels(t *testing.T) {
	tc := MintTrace(5, 2)
	sl := tc.SpanLabels(L("client", "c0"))
	if len(sl) != 3 || sl[0].Key != LabelTraceID || sl[1].Key != LabelSpanID || sl[2].Key != "client" {
		t.Errorf("SpanLabels = %+v", sl)
	}
	cl := tc.ChildLabels()
	if len(cl) != 2 || cl[0].Key != LabelTraceID || cl[1].Key != LabelParentID {
		t.Errorf("ChildLabels = %+v", cl)
	}
	if cl[1].Value != tc.SpanID {
		t.Error("ChildLabels parent is not this span")
	}
	// Invalid context contributes no trace labels, only the extras.
	if got := (TraceContext{}).SpanLabels(L("k", "v")); len(got) != 1 {
		t.Errorf("invalid SpanLabels = %+v", got)
	}
}

func TestItoa(t *testing.T) {
	for _, v := range []int{0, 1, 9, 10, 123456789, -1, -987} {
		want := map[int]string{0: "0", 1: "1", 9: "9", 10: "10", 123456789: "123456789", -1: "-1", -987: "-987"}[v]
		if got := itoa(v); got != want {
			t.Errorf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}

// FuzzParseTraceContext feeds arbitrary header values to ParseTraceContext,
// the parser every peer-supplied X-Bofl-Trace header goes through. An
// accepted value must be valid and round-trip through String; a rejected one
// must yield the zero context. Splitting the input at its first '-' gives an
// arbitrary, possibly hostile, context, which Sanitized must keep when
// valid and zero otherwise, and which a second Sanitized must not change. The seed
// corpus is checked in under testdata/fuzz/FuzzParseTraceContext.
func FuzzParseTraceContext(f *testing.F) {
	f.Add(MintTrace(1, 1).String())
	f.Add(MintTrace(20260806, 7).Child("attempt", "cli-0", "0").String())
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseTraceContext(s)
		if ok {
			if !c.Valid() {
				t.Fatalf("accepted %q as an invalid context %+v", s, c)
			}
			if got := c.String(); got != s {
				t.Fatalf("accepted %q, which renders back as %q", s, got)
			}
		} else if c != (TraceContext{}) {
			t.Fatalf("rejected %q but returned %+v", s, c)
		}

		tid, sid, _ := strings.Cut(s, "-")
		raw := TraceContext{TraceID: tid, SpanID: sid}
		if ok && raw != c {
			t.Fatalf("accepted %q as %+v, its split at '-' is %+v", s, c, raw)
		}
		san := raw.Sanitized()
		want := TraceContext{}
		if raw.Valid() {
			want = raw
		}
		if san != want {
			t.Fatalf("Sanitized(%+v) = %+v, want %+v", raw, san, want)
		}
		if again := san.Sanitized(); again != san {
			t.Fatalf("Sanitized not idempotent on %+v: %+v, then %+v", raw, san, again)
		}
	})
}
