package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzSessionInfoEncoding holds (*SessionInfo).appendJSON to
// json.NewEncoder(&buf).Encode byte for byte, trailing newline included:
// arbitrary strings (the HTML and line-separator escapes, control
// characters, invalid UTF-8), arbitrary floats (the 'e'-format edges, −0,
// subnormals) and nil, empty and populated endpoint lists. A non-finite
// float must make both refuse.
func FuzzSessionInfoEncoding(f *testing.F) {
	f.Add("s-000001", "chsh", "a", "b", uint8(3), "quantum", "normal", 0.97, 1e5, 0.853, 0.7071, 0.75, 0.8535, int64(2), int64(64), int64(640), true, false)
	f.Add("x<y>&z", "g ", " ", "", uint8(2), "\b\f", "\x00\x1f\x7f", 1e-7, 1e21, 9.99e20, 1e-6, 5e-324, math.Copysign(0, -1), int64(-1), int64(9), int64(math.MaxInt64), false, true)
	f.Add("bad-\xff\xfe-utf8", "\xc3", "\xed\xa0\x80", "é√", uint8(0), "", "", -1e-9, -1e22, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, -0.5, int64(math.MinInt64), int64(0), int64(10), false, false)
	f.Add("nan", "", "", "", uint8(1), "", "", math.NaN(), 0.0, 0.0, 0.0, 0.0, 0.0, int64(0), int64(0), int64(0), false, false)
	f.Add("inf", "", "", "", uint8(1), "", "", 0.0, 0.0, 0.0, 0.0, 0.0, math.Inf(-1), int64(0), int64(0), int64(0), false, false)
	f.Fuzz(func(t *testing.T, id, game, ep1, ep2 string, endpoints uint8, level, priority string,
		vis, rate, winRate, critical, classical, quantum float64, n1, n2, n3 int64, b1, b2 bool) {
		info := SessionInfo{
			ID: id, Game: game, Level: level, Priority: priority,
			Visibility: vis, SupplyRate: rate, WinRate: winRate,
			CriticalVisibility: critical, ClassicalValue: classical, QuantumValue: quantum,
			Transitions: n1, Rounds: n2, QuantumRounds: n3, FallbackRounds: -n1,
			PoolPairs: int(n3), PairsDelivered: n2 ^ n3, PairBudget: n1 + 1, SimNowNS: n2 / 3,
			Brownout: b1, BudgetExhausted: b2, Draining: b1 != b2,
		}
		switch endpoints % 4 {
		case 1:
			info.Endpoints = []string{}
		case 2:
			info.Endpoints = []string{ep1}
		case 3:
			info.Endpoints = []string{ep1, ep2}
		}
		var std bytes.Buffer
		stdErr := json.NewEncoder(&std).Encode(info)
		got, ok := info.appendJSON([]byte("prefix"))
		if !ok {
			if stdErr == nil {
				t.Fatalf("append encoder declined what encoding/json renders:\n%s", std.String())
			}
			return
		}
		if stdErr != nil {
			t.Fatalf("append encoder rendered what encoding/json refuses (%v):\n%s", stdErr, got)
		}
		if string(got) != "prefix"+std.String() {
			t.Fatalf("append encoder\n %s\njson.NewEncoder\n %s", got[len("prefix"):], std.String())
		}
	})
}
