package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The decide path is the serving hot loop, so its HTTP plumbing stays off
// the heap and out of reflection:
//
//   - request bodies are read into a pooled scratch buffer instead of a
//     fresh io.ReadAll slice;
//   - a body in the canonical subset (decode.go) is decoded by the
//     hand-written fast path straight into the scratch's pooled request
//     struct: no reflection, no allocation, every field and every round
//     written whole, the session named by a view into the body;
//   - any other body goes to json.Unmarshal, into a target zeroed first —
//     the recycled Rounds array included, because encoding/json extends a
//     slice over its old elements without clearing them and a round that
//     omits a key would otherwise inherit it from an earlier request;
//   - responses are rendered by a hand-rolled append-style encoder into the
//     same scratch — strconv.Append* into a []byte, no reflection, no
//     intermediate allocations.
//
// Both halves are pinned to encoding/json: the decoder accepts only what
// the standard library accepts and agrees with it on every value
// (FuzzFastDecode), and the encoder's output is byte-identical to
// json.Marshal (TestAppendEncoderMatchesEncodingJSON), so clients keep
// using the standard library.

// decideScratch is the pooled per-request workspace for the decide
// handlers: one Get/Put per HTTP request, everything inside reused. The
// decode methods overwrite their target completely, so nothing carries over
// from the request that last held the scratch.
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

// results returns the scratch's batch-response slice sized to n, reusing
// capacity across requests.
func (sc *decideScratch) results(n int) []DecideResponse {
	if cap(sc.bres) < n {
		sc.bres = make([]DecideResponse, n)
	}
	sc.bres = sc.bres[:n]
	return sc.bres
}

// decodeSingle reads a POST /v1/decide body into the pooled buffer and
// decodes it into sc.req: by the fast path when it accepts, else by
// json.Unmarshal into a zeroed target.
func (s *Server) decodeSingle(sc *decideScratch, r *http.Request) (err error) {
	if sc.body, err = readBody(r.Body, sc.body, maxBodyBytes); err != nil {
		return err
	}
	if id, ok := fastDecodeSingle(sc.body, &sc.req); ok {
		sc.req.Session = s.sessionID(id)
		return nil
	}
	sc.req = DecideRequest{}
	return json.Unmarshal(sc.body, &sc.req)
}

// decodeBatch is decodeSingle for POST /v1/decide/batch and sc.breq.
func (s *Server) decodeBatch(sc *decideScratch, r *http.Request) (err error) {
	if sc.body, err = readBody(r.Body, sc.body, maxBodyBytes); err != nil {
		return err
	}
	if id, ok := fastDecodeBatch(sc.body, &sc.breq); ok {
		sc.breq.Session = s.sessionID(id)
		return nil
	}
	rounds := sc.breq.Rounds[:cap(sc.breq.Rounds)]
	clear(rounds)
	sc.breq = DecideBatchRequest{Rounds: rounds[:0]}
	return json.Unmarshal(sc.body, &sc.breq)
}

// sessionID resolves a view of a session ID to a string without copying it:
// a registered session lends its own ID. Only an unknown ID — a 404 in the
// making — is allocated.
func (s *Server) sessionID(view []byte) string {
	if sess, _ := find(s, view); sess != nil {
		return sess.id
	}
	return string(view)
}

// readBody reads r fully into buf (reusing its capacity) up to limit bytes,
// returning the filled buffer. The limit is checked before io.EOF is
// honoured: a reader may hand over its last bytes and EOF in one call.
func readBody(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
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

// appendName appends a mode or level name as a JSON string. The names the
// core emits are written from pre-quoted literals; anything else takes the
// escaping path, which renders those same names identically.
func appendName(b []byte, s string) []byte {
	switch s {
	case "quantum":
		return append(b, `"quantum"`...)
	case "fallback":
		return append(b, `"fallback"`...)
	case "reoptimized":
		return append(b, `"reoptimized"`...)
	case "classical":
		return append(b, `"classical"`...)
	case "random":
		return append(b, `"random"`...)
	}
	return appendJSONString(b, s)
}

// roundWriter renders DecideResponses one after another into one buffer. It
// remembers where the previous response's `{"session":"…","a":` and its
// formatted visibility landed, so a response that repeats either — every
// round of a batch shares the session, every fallback round the visibility
// — copies those bytes instead of escaping and formatting them again. The
// zero value is ready to use.
type roundWriter struct {
	session        string
	headLo, headHi int // the previous response's bytes up to `"a":`, in the buffer
	visBits        uint64
	visLo, visHi   int // the previous response's formatted visibility
}

// append renders r as a JSON object. Field order matches the struct so the
// output is stable. b must be the buffer the previous call returned (or
// that buffer with more appended to it).
func (w *roundWriter) append(b []byte, r *DecideResponse) []byte {
	if w.headHi > 0 && r.Session == w.session {
		b = append(b, b[w.headLo:w.headHi]...)
	} else {
		w.session, w.headLo = r.Session, len(b)
		b = append(b, `{"session":`...)
		b = appendJSONString(b, r.Session)
		b = append(b, `,"a":`...)
		w.headHi = len(b)
	}
	b = strconv.AppendInt(b, int64(r.A), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, `,"mode":`...)
	b = appendName(b, r.Mode)
	b = append(b, `,"level":`...)
	b = appendName(b, r.Level)
	b = append(b, `,"visibility":`...)
	// Compared as bits: -0 equals 0 but renders differently.
	if bits := math.Float64bits(r.Visibility); w.visHi > 0 && bits == w.visBits {
		b = append(b, b[w.visLo:w.visHi]...)
	} else {
		w.visBits, w.visLo = bits, len(b)
		b = appendFloat(b, r.Visibility)
		w.visHi = len(b)
	}
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

// appendJSON renders the response as a JSON object.
func (r *DecideResponse) appendJSON(b []byte) []byte {
	var w roundWriter
	return w.append(b, r)
}

// appendBatchJSON renders a DecideBatchResponse-shaped object from the
// session ID and a results slice without materializing the wrapper struct.
func appendBatchJSON(b []byte, session string, results []DecideResponse) []byte {
	b = append(b, `{"session":`...)
	b = appendJSONString(b, session)
	b = append(b, `,"results":[`...)
	var w roundWriter
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = w.append(b, &results[i])
	}
	return append(b, ']', '}')
}
