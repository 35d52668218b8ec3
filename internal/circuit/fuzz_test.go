package circuit

import (
	"strings"
	"testing"
)

// FuzzParseQASM feeds ParseQASM arbitrary text, as POST /v1/route's raw
// form does. ParseQASM must never panic, and any circuit it accepts must
// round-trip: serializing it, parsing that and serializing again gives
// the same text. The seed corpus lives in testdata/fuzz/FuzzParseQASM;
// plain `go test` replays it, `go test -fuzz FuzzParseQASM` explores.
func FuzzParseQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseQASM(strings.NewReader(src))
		if err != nil {
			return
		}
		text := QASMString(c)
		back, err := ParseQASM(strings.NewReader(text))
		if err != nil {
			t.Fatalf("serialized circuit does not parse: %v\n%s", err, text)
		}
		if again := QASMString(back); again != text {
			t.Fatalf("round trip changed the circuit:\n%s\nbecame\n%s", text, again)
		}
	})
}
