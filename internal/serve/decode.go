package serve

import "math"

// The fast-path request decoder. encoding/json spends most of a decide
// request inside reflection, so the two hot request shapes get a
// hand-written decoder for the canonical subset of JSON that real clients
// send:
//
//	single = ws "{" ws [ sfield { ws "," ws sfield } ] ws "}" ws
//	batch  = ws "{" ws [ bfield { ws "," ws bfield } ] ws "}" ws
//	sfield = `"session"` sep string | `"x"` sep int | `"y"` sep int
//	       | `"deadline_unix_ns"` sep int
//	bfield = `"session"` sep string | `"rounds"` sep rounds
//	       | `"deadline_unix_ns"` sep int
//	rounds = "[" ws [ round { ws "," ws round } ] ws "]"
//	round  = "{" ws [ rfield { ws "," ws rfield } ] ws "}"
//	rfield = `"x"` sep int | `"y"` sep int
//	sep    = ws ":" ws
//	string = `"` { any byte 0x20..0x7F except `"` and `\` } `"`
//	int    = [ "-" ] ( "0" | "1".."9" { "0".."9" } )    within int64
//	ws     = { " " | "\t" | "\n" | "\r" }
//
// with every key spelled exactly as above and appearing at most once in its
// object. Inside that subset the decoded values are, by inspection, what
// encoding/json produces. Outside it — escapes, non-ASCII, folded-case or
// unknown or repeated keys, null, fractions, exponents, integers past int64,
// trailing bytes, anything malformed — the decoder DECLINES: it reports
// ok=false and never an error, and the caller decodes the same bytes with
// json.Unmarshal. The standard library therefore still decides what is
// accepted, what every accepted body means and what every 400 says; it is
// the cold path and, in FuzzFastDecode, the oracle.

// maxFastDigits bounds a fast-path integer: 19 decimal digits hold every
// int64 — a UnixNano deadline is 19 — and always fit a uint64, so the digit
// loop needs no overflow check, only the range check after it.
const maxFastDigits = 19

// cursor walks a request body. Its methods report ok=false to decline.
type cursor struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (c *cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat consumes ch if it is the next byte.
func (c *cursor) eat(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (c *cursor) end() bool {
	c.ws()
	return c.i == len(c.b)
}

// str consumes a string of plain ASCII and returns a view of its contents.
func (c *cursor) str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	start := c.i
	for ; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch < 0x20 || ch >= 0x80 || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int consumes a plain integer that fits an int64. Whatever follows it is
// the caller's to judge, so "1.0", "1e2" and "01" all decline there: none of
// '.', 'e', '1' is a separator.
func (c *cursor) int() (int64, bool) {
	neg := c.eat('-')
	start := c.i
	var v uint64
	for c.i < len(c.b) && c.i-start <= maxFastDigits && c.b[c.i]-'0' <= 9 {
		v = v*10 + uint64(c.b[c.i]-'0')
		c.i++
	}
	n := c.i - start
	if n == 0 || n > maxFastDigits || (n > 1 && c.b[start] == '0') {
		return 0, false
	}
	if neg {
		// Two's complement: -(1<<63) is its own negation's bit pattern.
		return -int64(v), v <= 1<<63
	}
	return int64(v), v <= math.MaxInt64
}

// key steps to the next member of the object the cursor is inside and
// consumes its key and colon. first says no member has been read yet. It
// returns more=false once the closing brace is consumed.
func (c *cursor) key(first bool) (key []byte, more, ok bool) {
	c.ws()
	if c.eat('}') {
		return nil, false, true
	}
	if !first {
		if !c.eat(',') {
			return nil, false, false
		}
		c.ws()
	}
	if key, ok = c.str(); !ok {
		return nil, false, false
	}
	c.ws()
	if !c.eat(':') {
		return nil, false, false
	}
	c.ws()
	return key, true, true
}

// once marks field in *seen and reports whether it was still unmarked.
func once(seen *uint, field uint) bool {
	fresh := *seen&field == 0
	*seen |= field
	return fresh
}

// round consumes one round object. A key left out stays zero.
func (c *cursor) round() (r Round, ok bool) {
	if !c.eat('{') {
		return r, false
	}
	var seen uint
	for first := true; ; first = false {
		key, more, ok := c.key(first)
		if !ok {
			return r, false
		}
		if !more {
			return r, true
		}
		var v int64
		switch string(key) {
		case "x":
			v, ok = c.int()
			r.X = int(v)
			ok = ok && once(&seen, 1)
		case "y":
			v, ok = c.int()
			r.Y = int(v)
			ok = ok && once(&seen, 2)
		default:
			ok = false
		}
		if !ok || int64(int(v)) != v {
			return r, false
		}
	}
}

// rounds consumes the rounds array, appending to dst. Every element is
// written whole, so nothing of dst's previous contents shows through.
func (c *cursor) rounds(dst []Round) ([]Round, bool) {
	if !c.eat('[') {
		return dst, false
	}
	c.ws()
	if c.eat(']') {
		return dst, true
	}
	for {
		r, ok := c.round()
		if !ok {
			return dst, false
		}
		dst = append(dst, r)
		c.ws()
		if !c.eat(',') {
			return dst, c.eat(']')
		}
		c.ws()
	}
}

// fastDecodeSingle decodes a POST /v1/decide body into req when the body is
// in the canonical subset. It assigns every field of req except Session,
// which it returns as a view into b for the caller to resolve without
// copying. When it declines, req holds nothing to rely on.
func fastDecodeSingle(b []byte, req *DecideRequest) (session []byte, ok bool) {
	c := cursor{b: b}
	c.ws()
	if !c.eat('{') {
		return nil, false
	}
	var seen uint
	var x, y, deadline int64
	for first := true; ; first = false {
		key, more, ok := c.key(first)
		if !ok {
			return nil, false
		}
		if !more {
			break
		}
		switch string(key) {
		case "session":
			session, ok = c.str()
			ok = ok && once(&seen, 1)
		case "x":
			x, ok = c.int()
			ok = ok && once(&seen, 2)
		case "y":
			y, ok = c.int()
			ok = ok && once(&seen, 4)
		case "deadline_unix_ns":
			deadline, ok = c.int()
			ok = ok && once(&seen, 8)
		default:
			ok = false
		}
		if !ok {
			return nil, false
		}
	}
	if !c.end() || int64(int(x)) != x || int64(int(y)) != y {
		return nil, false
	}
	req.X, req.Y, req.DeadlineUnixNS = int(x), int(y), deadline
	return session, true
}

// fastDecodeBatch is fastDecodeSingle for a POST /v1/decide/batch body. The
// rounds land in req.Rounds' own backing array, grown as needed; when it
// declines that array may hold a prefix of them.
func fastDecodeBatch(b []byte, req *DecideBatchRequest) (session []byte, ok bool) {
	c := cursor{b: b}
	c.ws()
	if !c.eat('{') {
		return nil, false
	}
	var seen uint
	var deadline int64
	rounds := req.Rounds[:0]
	for first := true; ; first = false {
		key, more, ok := c.key(first)
		if !ok {
			return nil, false
		}
		if !more {
			break
		}
		switch string(key) {
		case "session":
			session, ok = c.str()
			ok = ok && once(&seen, 1)
		case "rounds":
			rounds, ok = c.rounds(rounds)
			ok = ok && once(&seen, 2)
		case "deadline_unix_ns":
			deadline, ok = c.int()
			ok = ok && once(&seen, 4)
		default:
			ok = false
		}
		if !ok {
			return nil, false
		}
	}
	if !c.end() {
		return nil, false
	}
	req.Rounds, req.DeadlineUnixNS = rounds, deadline
	return session, true
}
