// Package yamlite parses the small YAML subset the fabric's spec and
// scenario files use, with no dependency outside the standard library:
// block maps, block lists (including "- key: value" lists of maps),
// quoted and plain scalars, inline flow lists of scalars, and "#"
// comments.  Anchors, multi-document streams, multi-line scalars and
// flow maps are deliberately out of scope.
//
// Documents parse into a Node tree that preserves key order, so
// everything downstream of a parse is deterministic by construction.
package yamlite

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind is a node's shape.
type Kind uint8

// The three node shapes.
const (
	Scalar Kind = iota
	Map
	List
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Map:
		return "map"
	case List:
		return "list"
	}
	return "unknown"
}

// Node is one parsed value.
type Node struct {
	// Line is the 1-based source line the node started on, for error
	// messages.
	Line int

	kind  Kind
	value string
	keys  []string
	vals  []*Node
	items []*Node
}

// Kind returns the node's shape.
func (n *Node) Kind() Kind {
	if n == nil {
		return Scalar
	}
	return n.kind
}

// Str returns a scalar's text (unquoted); "" for a nil node, so
// lookups of optional keys chain safely.
func (n *Node) Str() string {
	if n == nil {
		return ""
	}
	return n.value
}

// Keys returns a map's keys in document order.
func (n *Node) Keys() []string {
	if n == nil {
		return nil
	}
	return n.keys
}

// Get returns a map's value for key, nil when absent (or when n is not
// a map), so lookups chain safely.
func (n *Node) Get(key string) *Node {
	if n == nil || n.kind != Map {
		return nil
	}
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

// CheckKeys rejects a map key outside allowed, naming the key and the
// allowed set; a nil n (no value where a map belongs) is an error too.
// Spec and scenario files reject unknown keys so that a typo fails
// loudly instead of silently under-configuring the fabric.
func (n *Node) CheckKeys(allowed ...string) error {
	if n == nil {
		return fmt.Errorf("expected a map")
	}
	for _, k := range n.keys {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("unknown key %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// Items returns a list's elements in document order.
func (n *Node) Items() []*Node {
	if n == nil {
		return nil
	}
	return n.items
}

// Int parses a scalar as an integer.
func (n *Node) Int() (int64, error) {
	if n == nil || n.kind != Scalar {
		return 0, fmt.Errorf("yamlite: not a scalar")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(n.value), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("yamlite: line %d: %q is not an integer", n.Line, n.value)
	}
	return v, nil
}

// Float parses a scalar as a float.
func (n *Node) Float() (float64, error) {
	if n == nil || n.kind != Scalar {
		return 0, fmt.Errorf("yamlite: not a scalar")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(n.value), 64)
	if err != nil {
		return 0, fmt.Errorf("yamlite: line %d: %q is not a number", n.Line, n.value)
	}
	return v, nil
}

// Bool parses a scalar as true/false.
func (n *Node) Bool() (bool, error) {
	if n == nil || n.kind != Scalar {
		return false, fmt.Errorf("yamlite: not a scalar")
	}
	switch strings.TrimSpace(n.value) {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("yamlite: line %d: %q is not a bool", n.Line, n.value)
}

// line is one logical source line after comment stripping.
type line struct {
	num    int    // 1-based source line
	indent int    // leading spaces
	text   string // content, no indent, no trailing space
}

// Parse parses one document.  The root is whatever the top level is —
// usually a map.
func Parse(src string) (*Node, error) {
	var lines []line
	for i, raw := range strings.Split(src, "\n") {
		if strings.ContainsRune(raw, '\t') {
			return nil, fmt.Errorf("yamlite: line %d: tabs are not allowed in indentation", i+1)
		}
		text := stripComment(raw)
		trimmed := strings.TrimSpace(text)
		if trimmed == "" {
			continue
		}
		lines = append(lines, line{
			num:    i + 1,
			indent: len(text) - len(strings.TrimLeft(text, " ")),
			text:   trimmed,
		})
	}
	if len(lines) == 0 {
		return &Node{kind: Map}, nil
	}
	p := &parser{lines: lines}
	n, err := p.block(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("yamlite: line %d: unexpected indentation", l.num)
	}
	return n, nil
}

// stripComment removes a trailing "#" comment, respecting quotes.
func stripComment(s string) string {
	inQ := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQ != 0:
			if c == inQ {
				inQ = 0
			}
		case c == '"' || c == '\'':
			inQ = c
		case c == '#':
			// A comment starts at line start or after whitespace.
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

// block parses the run of lines at exactly indent (children deeper).
func (p *parser) block(indent int) (*Node, error) {
	l := p.lines[p.pos]
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.list(indent)
	}
	return p.mapping(indent)
}

func (p *parser) list(indent int) (*Node, error) {
	n := &Node{kind: List, Line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent {
			if l.indent > indent {
				return nil, fmt.Errorf("yamlite: line %d: unexpected indentation", l.num)
			}
			break
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			return nil, fmt.Errorf("yamlite: line %d: expected list item", l.num)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			// "-" alone: the item is the nested block below.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("yamlite: line %d: empty list item", l.num)
			}
			item, err := p.block(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, item)
			continue
		}
		if isMapStart(rest) {
			// "- key: value": the item is a map whose first entry sits
			// on the dash line.  Reindent the remainder as a virtual
			// line two columns in and parse a normal map block.
			p.lines[p.pos] = line{num: l.num, indent: indent + 2, text: rest}
			item, err := p.mapping(indent + 2)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, item)
			continue
		}
		sc, err := scalarNode(rest, l.num)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, sc)
		p.pos++
	}
	return n, nil
}

func (p *parser) mapping(indent int) (*Node, error) {
	n := &Node{kind: Map, Line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent {
			if l.indent > indent {
				return nil, fmt.Errorf("yamlite: line %d: unexpected indentation", l.num)
			}
			break
		}
		key, rest, ok := splitKey(l.text)
		if !ok {
			return nil, fmt.Errorf("yamlite: line %d: expected \"key: value\"", l.num)
		}
		for _, k := range n.keys {
			if k == key {
				return nil, fmt.Errorf("yamlite: line %d: duplicate key %q", l.num, key)
			}
		}
		if rest != "" {
			sc, err := scalarNode(rest, l.num)
			if err != nil {
				return nil, err
			}
			n.keys = append(n.keys, key)
			n.vals = append(n.vals, sc)
			p.pos++
			continue
		}
		// "key:" — the value is the nested block, or an empty scalar
		// when nothing is indented below.
		p.pos++
		if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
			n.keys = append(n.keys, key)
			n.vals = append(n.vals, &Node{kind: Scalar, Line: l.num})
			continue
		}
		child, err := p.block(p.lines[p.pos].indent)
		if err != nil {
			return nil, err
		}
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, child)
	}
	return n, nil
}

// isMapStart reports whether text begins a "key: ..." map entry.
func isMapStart(text string) bool {
	_, _, ok := splitKey(text)
	return ok
}

// splitKey splits "key: value" / "key:" into (key, value).  The key
// must be plain (no quotes, no spaces before the colon).
func splitKey(text string) (key, rest string, ok bool) {
	i := strings.IndexByte(text, ':')
	if i <= 0 {
		return "", "", false
	}
	key = text[:i]
	if strings.ContainsAny(key, " \"'[]") {
		return "", "", false
	}
	rest = strings.TrimSpace(text[i+1:])
	return key, rest, true
}

// scalarNode parses an in-line value: a quoted or plain scalar, or a
// flow list "[a, b, c]" of scalars.
func scalarNode(text string, num int) (*Node, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, fmt.Errorf("yamlite: line %d: unterminated flow list", num)
		}
		n := &Node{kind: List, Line: num}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		if inner == "" {
			return n, nil
		}
		for _, part := range splitFlow(inner) {
			item, err := scalarNode(strings.TrimSpace(part), num)
			if err != nil {
				return nil, err
			}
			if item.kind != Scalar {
				return nil, fmt.Errorf("yamlite: line %d: nested flow lists are not supported", num)
			}
			n.items = append(n.items, item)
		}
		return n, nil
	}
	if len(text) >= 2 && (text[0] == '"' || text[0] == '\'') {
		q := text[0]
		if text[len(text)-1] != q {
			return nil, fmt.Errorf("yamlite: line %d: unterminated quoted scalar", num)
		}
		return &Node{kind: Scalar, value: text[1 : len(text)-1], Line: num}, nil
	}
	return &Node{kind: Scalar, value: text, Line: num}, nil
}

// splitFlow splits a flow list body on commas outside quotes.
func splitFlow(s string) []string {
	var parts []string
	start, inQ := 0, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQ != 0:
			if c == inQ {
				inQ = 0
			}
		case c == '"' || c == '\'':
			inQ = c
		case c == ',':
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}
