package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The decide path is the serving hot loop, so its HTTP plumbing avoids the
// per-request allocation tax of the generic encoding/json round trip:
//
//   - request bodies are read into a pooled scratch buffer instead of a
//     fresh io.ReadAll slice;
//   - request structs are pooled and reused (json.Unmarshal reuses the
//     Rounds backing array of a recycled DecideBatchRequest, so a steady
//     stream of batch-64 requests decodes with no per-request slice
//     growth);
//   - responses are rendered by a hand-rolled append-style encoder into the
//     same pooled buffer — strconv.Append* into a []byte, no reflection,
//     no intermediate allocations.
//
// The encoder produces plain JSON that encoding/json decodes back into the
// same struct (pinned by TestAppendEncoderMatchesEncodingJSON), so clients
// keep using the standard library.

// decideScratch is the pooled per-request workspace for the decide
// handlers: one Get/Put per HTTP request, everything inside reused.
type decideScratch struct {
	body []byte             // request read buffer
	out  []byte             // response encode buffer
	req  DecideRequest      // single-round decode target
	breq DecideBatchRequest // batch decode target (Rounds capacity reused)
	bres []DecideResponse   // batch responses (capacity reused)
}

var scratchPool = sync.Pool{New: func() any {
	return &decideScratch{
		body: make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
	}
}}

// getScratch pops a workspace with decode targets zeroed (slices keep their
// capacity).
func getScratch() *decideScratch {
	sc := scratchPool.Get().(*decideScratch)
	sc.req = DecideRequest{}
	sc.breq.Session = ""
	sc.breq.Rounds = sc.breq.Rounds[:0]
	sc.breq.DeadlineUnixNS = 0
	return sc
}

// results returns the scratch's batch-response slice sized to n, reusing
// capacity across requests.
func (sc *decideScratch) results(n int) []DecideResponse {
	if cap(sc.bres) < n {
		sc.bres = make([]DecideResponse, n)
	}
	sc.bres = sc.bres[:n]
	return sc.bres
}

// decode reads the request body into the pooled buffer and unmarshals it
// into v (one of the scratch's own decode targets).
func (sc *decideScratch) decode(r *http.Request, v any) error {
	var err error
	if sc.body, err = readBody(r.Body, sc.body, maxBodyBytes); err != nil {
		return err
	}
	return json.Unmarshal(sc.body, v)
}

// readBody reads r fully into buf (reusing its capacity) up to limit bytes,
// returning the filled buffer.
func readBody(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
	}
}

// hexDigits for control-character escapes.
const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping exactly what
// RFC 8259 requires (quotes, backslash, control characters). Session IDs
// and mode/level names are ASCII in practice, so the fast loop is a byte
// copy; invalid UTF-8 falls back to the replacement rune like
// encoding/json.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			// encoding/json escapes the replacement rune for invalid input;
			// matching it keeps the two encoders byte-identical.
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends a float64 the way encoding/json renders it: 'f'
// formatting except for extreme magnitudes, where it uses 'e' and trims the
// exponent's leading zero ("1e-09" → "1e-9"). Matching the standard library
// exactly keeps the append encoder byte-compatible with json.Marshal.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := f; abs != 0 {
		if abs < 0 {
			abs = -abs
		}
		if abs < 1e-6 || abs >= 1e21 {
			format = 'e'
		}
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" style exponents to "e-9".
		if n := len(b); n-start >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendBool appends a JSON boolean.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendJSON renders the response as a JSON object. Field order matches the
// struct so the output is stable.
func (r *DecideResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"session":`...)
	b = appendJSONString(b, r.Session)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, int64(r.A), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, `,"mode":`...)
	b = appendJSONString(b, r.Mode)
	b = append(b, `,"level":`...)
	b = appendJSONString(b, r.Level)
	b = append(b, `,"visibility":`...)
	b = appendFloat(b, r.Visibility)
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, r.LatencyNS, 10)
	b = append(b, `,"waited_ns":`...)
	b = strconv.AppendInt(b, r.WaitedNS, 10)
	b = append(b, `,"queue_ns":`...)
	b = strconv.AppendInt(b, r.QueueNS, 10)
	b = append(b, `,"win":`...)
	b = appendBool(b, r.Win)
	return append(b, '}')
}

// appendBatchJSON renders a DecideBatchResponse-shaped object from the
// session ID and a results slice without materializing the wrapper struct.
func appendBatchJSON(b []byte, session string, results []DecideResponse) []byte {
	b = append(b, `{"session":`...)
	b = appendJSONString(b, session)
	b = append(b, `,"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = results[i].appendJSON(b)
	}
	return append(b, ']', '}')
}
