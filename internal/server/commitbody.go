package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"rstore/internal/core"
	"rstore/internal/types"
)

// commitBody is a commit request as the store takes it.
type commitBody struct {
	parents []int64 // the primary parent first; a negative one is none
	change  core.Change
	branch  string
}

// commitBodyOf converts a CommitRequest that encoding/json decoded.
func commitBodyOf(req CommitRequest) commitBody {
	c := commitBody{
		parents: append([]int64{req.Parent}, req.Parents...),
		change:  core.Change{Puts: make(map[types.Key][]byte, len(req.Puts))},
		branch:  req.Branch,
	}
	for k, v := range req.Puts {
		c.change.Puts[types.Key(k)] = v
	}
	for _, k := range req.Deletes {
		c.change.Deletes = append(c.change.Deletes, types.Key(k))
	}
	return c
}

// Fields of CommitRequest, as parseCommit marks the ones it has seen.
const (
	fieldParent = 1 << iota
	fieldParents
	fieldPuts
	fieldDeletes
	fieldBranch
)

// parseCommit parses a commit body of the shape json.Marshal gives a
// CommitRequest, with any JSON whitespace between tokens, straight into a
// commitBody: no reflection, no map of strings beside the change, and the
// values decoded by base64.StdEncoding.Decode into one buffer (the store
// clones what it keeps). It reports false for anything else, which
// encoding/json then decodes as it always has: a field spelled in another
// case, escaped or repeated, an unknown field, null, a number that is no
// int64, an escape in a value, bad base64, trailing bytes and malformed
// JSON. So what parseCommit accepts decodes to the same change.
func parseCommit(body []byte) (commitBody, bool) {
	p := bodyParser{b: body}
	c := commitBody{parents: []int64{0}}
	seen := 0
	if !p.token('{') {
		return c, false
	}
	for first := true; !p.token('}'); first = false {
		if !first && !p.token(',') {
			return c, false
		}
		name, ok := p.raw()
		if !ok || !p.token(':') {
			return c, false
		}
		field := 0
		switch string(name) {
		case "parent":
			field = fieldParent
			c.parents[0], ok = p.int()
		case "parents":
			field = fieldParents
			ok = p.array(func() bool {
				n, ok := p.int()
				c.parents = append(c.parents, n)
				return ok
			})
		case "puts":
			field = fieldPuts
			ok = p.puts(&c.change)
		case "deletes":
			field = fieldDeletes
			ok = p.array(func() bool {
				k, ok := p.string()
				c.change.Deletes = append(c.change.Deletes, types.Key(k))
				return ok
			})
		case "branch":
			field = fieldBranch
			c.branch, ok = p.string()
		}
		if !ok || field == 0 || seen&field != 0 {
			return c, false
		}
		seen |= field
	}
	p.space()
	if c.change.Puts == nil {
		c.change.Puts = map[types.Key][]byte{}
	}
	return c, p.i == len(p.b)
}

// bodyParser walks a JSON body; every method skips the whitespace before
// what it reads and reports false where the body is not what it reads.
type bodyParser struct {
	b []byte
	i int
}

func (p *bodyParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// token consumes c.
func (p *bodyParser) token(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// int reads an integer an int64 holds: the JSON grammar's digits with no
// fraction or exponent, which a caller's next token refuses.
func (p *bodyParser) int() (int64, bool) {
	p.space()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	digits := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	if p.i == digits || p.b[digits] == '0' && p.i > digits+1 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
	return n, err == nil
}

// array reads a JSON array, elem reading each element.
func (p *bodyParser) array(elem func() bool) bool {
	if !p.token('[') {
		return false
	}
	for first := true; !p.token(']'); first = false {
		if !first && !p.token(',') || !elem() {
			return false
		}
	}
	return true
}

// raw reads a string as its bytes between the quotes, escapes and all.
func (p *bodyParser) raw() ([]byte, bool) {
	if !p.token('"') {
		return nil, false
	}
	n := bytes.IndexByte(p.b[p.i:], '"')
	if n < 0 {
		return nil, false
	}
	p.i += n + 1
	return p.b[p.i-n-1 : p.i-1], true
}

// string reads a string, unescaped as encoding/json unescapes it: one with
// no escape, control character or byte past ASCII is its bytes, and
// json.Unmarshal unescapes any other.
func (p *bodyParser) string() (string, bool) {
	if !p.token('"') {
		return "", false
	}
	start, plain := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			if plain {
				return string(p.b[start : p.i-1]), true
			}
			var s string
			err := json.Unmarshal(p.b[start-1:p.i], &s)
			return s, err == nil
		case c == '\\':
			plain = false
			p.i++ // the byte escaped closes nothing
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	return "", false
}

// puts reads the puts object into ch.Puts, which it makes, sized by an
// upper bound on its entries: each takes four quotes. A key repeated keeps
// its last value, as encoding/json's map does.
func (p *bodyParser) puts(ch *core.Change) bool {
	if !p.token('{') {
		return false
	}
	rest := p.b[p.i:]
	ch.Puts = make(map[types.Key][]byte, bytes.Count(rest, []byte{'"'})/4)
	// Every value's bytes lie in rest, and base64 decodes n bytes to at
	// most DecodedLen(n), so the values fit the buffer together.
	vals := make([]byte, 0, base64.StdEncoding.DecodedLen(len(rest)))
	for first := true; !p.token('}'); first = false {
		if !first && !p.token(',') {
			return false
		}
		k, ok := p.string()
		if !ok || !p.token(':') {
			return false
		}
		src, ok := p.raw()
		// Decode skips CR and LF, which a JSON string may not hold raw, and
		// refuses every other byte that would need unescaping.
		if !ok || bytes.IndexByte(src, '\r') >= 0 || bytes.IndexByte(src, '\n') >= 0 {
			return false
		}
		at := len(vals)
		n, err := base64.StdEncoding.Decode(vals[at:at+base64.StdEncoding.DecodedLen(len(src))], src)
		if err != nil {
			return false
		}
		vals = vals[:at+n]
		ch.Puts[types.Key(k)] = vals[at : at+n : at+n]
	}
	return true
}
