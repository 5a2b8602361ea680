package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// updateWireParity re-records testdata/wire_parity.json. The file was
// recorded from the commit before the fast-path decoder, when encoding/json
// decoded every body; re-record it only to change the wire contract on
// purpose.
var updateWireParity = flag.Bool("update-wire-parity", false, "re-record testdata/wire_parity.json from this build")

const wireParityFile = "testdata/wire_parity.json"

// wireAnswer is everything a client sees of one response.
type wireAnswer struct {
	Status     int    `json:"status"`
	RetryAfter string `json:"retry_after,omitempty"`
	Body       string `json:"body"`
}

// wireRecord is one input's answers at the two decide endpoints, asked in
// that order of one fresh server.
type wireRecord struct {
	Name   string     `json:"name"`
	Single wireAnswer `json:"single"`
	Batch  wireAnswer `json:"batch"`
}

// readFuzzSeed extracts the []byte argument of a one-argument Go fuzz corpus
// file.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-argument fuzz corpus file", path)
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	quoted, ok2 := strings.CutSuffix(quoted, ")")
	if !ok || !ok2 {
		t.Fatalf("%s: argument is not a []byte", path)
	}
	s, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestWireParity replays every committed FuzzDecideHandlers seed and every
// body of the TestDecideWireErrors table through both decide endpoints and
// requires status, Retry-After and body to be the strings recorded before
// the fast-path decoder existed — the error texts are encoding/json's own
// and must not drift.
func TestWireParity(t *testing.T) {
	type input struct {
		name string
		body string
	}
	var inputs []input
	seeds, err := filepath.Glob("testdata/fuzz/FuzzDecideHandlers/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzDecideHandlers seeds found (err=%v)", err)
	}
	for _, path := range seeds {
		inputs = append(inputs, input{"seed/" + filepath.Base(path), string(readFuzzSeed(t, path))})
	}
	for _, wc := range decideWireCases() {
		inputs = append(inputs, input{"wire/" + wc.name + " " + wc.path, wc.body})
	}

	got := make([]wireRecord, 0, len(inputs))
	for _, in := range inputs {
		srv := NewServer(Config{Shards: 1, Clock: func() time.Time { return testEpoch }, Admission: testAdmission()})
		for _, id := range []string{"f", "t-wire"} {
			if _, err := srv.CreateSession(SessionRequest{ID: id, Endpoints: twoEndpoints(), Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
		ask := func(path string) wireAnswer {
			rec := post(srv, path, in.body)
			return wireAnswer{rec.Code, rec.Header().Get("Retry-After"), rec.Body.String()}
		}
		got = append(got, wireRecord{Name: in.name, Single: ask("/v1/decide"), Batch: ask("/v1/decide/batch")})
		srv.StopSessions()
	}

	if *updateWireParity {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireParityFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireParityFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []wireRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", wireParityFile, err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d inputs, %s records %d", len(got), wireParityFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", got[i].Name, got[i], want[i])
		}
	}
}
