package ir

import (
	"fmt"
	"strconv"

	"repro/internal/grammar"
)

// ParseTree parses an s-expression-like textual tree into a forest with a
// single root, resolving operator names against g. The syntax matches what
// Forest.String produces:
//
//	Store(Reg, Plus(Load(Reg), Const[42]))
//
// Leaves may carry payloads in brackets: a number (Const[42]) or a symbol
// (Addr[x]). Whitespace is free-form. ParseTree builds plain trees (no
// sharing); ParseTrees parses several newline- or semicolon-separated
// trees into one forest.
func ParseTree(g *grammar.Grammar, src string) (*Forest, error) {
	return ParseTrees(g, src)
}

// ParseTrees parses one or more trees separated by newlines or semicolons.
func ParseTrees(g *grammar.Grammar, src string) (*Forest, error) {
	b := NewBuilder(g)
	p := &treeParser{src: src, b: b}
	for {
		p.skipSpace(true)
		if p.pos >= len(p.src) {
			break
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		b.Root(n)
		p.skipSpace(false)
		if p.pos < len(p.src) {
			c := p.src[p.pos]
			if c == '\n' || c == ';' {
				p.pos++
				continue
			}
			return nil, fmt.Errorf("tree:%d: trailing input %q", p.pos, rest(p.src, p.pos))
		}
	}
	f := b.Finish()
	if len(f.Roots) == 0 {
		return nil, fmt.Errorf("tree: empty input")
	}
	return f, nil
}

// MustParseTree is ParseTree for statically known inputs; panics on error.
func MustParseTree(g *grammar.Grammar, src string) *Forest {
	f, err := ParseTree(g, src)
	if err != nil {
		panic(err)
	}
	return f
}

func rest(s string, pos int) string {
	if pos+20 < len(s) {
		return s[pos:pos+20] + "..."
	}
	return s[pos:]
}

type treeParser struct {
	src string
	pos int
	b   *Builder
}

func (p *treeParser) skipSpace(newlines bool) {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\r' || (newlines && (c == '\n' || c == ';')) {
			p.pos++
			continue
		}
		break
	}
}

// openNode is a node whose '(' has been read and whose kids are being
// parsed: the explicit-stack frame of parseNode.
type openNode struct {
	op   grammar.OpID
	val  int64
	sym  string
	name string
	base int // start of this node's kids on the shared kid stack
}

// parseNode parses one tree. It is iterative — an explicit stack of open
// nodes and one shared stack of finished kids instead of recursion — so a
// client-supplied tree of any depth cannot overflow the goroutine stack.
// Nodes are built in post-order, children before parents, exactly as a
// recursive descent would build them.
func (p *treeParser) parseNode() (*Node, error) {
	var open []openNode
	var kids []*Node
	for {
		nd, err := p.parseHead()
		if err != nil {
			return nil, err
		}
		p.skipSpace(false)
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			p.pos++
			nd.base = len(kids)
			open = append(open, nd)
			continue
		}
		n, err := p.build(nd, nil)
		// Close every node this one completes, then descend into the next
		// sibling (after ',') or return the finished root.
		for err == nil {
			if len(open) == 0 {
				return n, nil
			}
			kids = append(kids, n)
			top := &open[len(open)-1]
			p.skipSpace(false)
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("tree: unterminated '(' for %s", top.name)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				break
			}
			if p.src[p.pos] != ')' {
				return nil, fmt.Errorf("tree:%d: expected ',' or ')', got %q", p.pos, rest(p.src, p.pos))
			}
			p.pos++
			n, err = p.build(*top, kids[top.base:])
			kids = kids[:top.base]
			open = open[:len(open)-1]
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseHead parses an operator name and its optional [payload].
func (p *treeParser) parseHead() (openNode, error) {
	p.skipSpace(false)
	start := p.pos
	for p.pos < len(p.src) && isWordChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return openNode{}, fmt.Errorf("tree:%d: expected operator name, got %q", p.pos, rest(p.src, p.pos))
	}
	nd := openNode{name: p.src[start:p.pos]}
	op, ok := p.b.Grammar().OpByName(nd.name)
	if !ok {
		return openNode{}, fmt.Errorf("tree:%d: unknown operator %q", start, nd.name)
	}
	nd.op = op
	if p.pos < len(p.src) && p.src[p.pos] == '[' {
		p.pos++
		pstart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != ']' {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return openNode{}, fmt.Errorf("tree:%d: unterminated '['", pstart)
		}
		payload := p.src[pstart:p.pos]
		p.pos++ // ']'
		if v, err := strconv.ParseInt(payload, 10, 64); err == nil {
			nd.val = v
		} else {
			nd.sym = payload
		}
	}
	return nd, nil
}

// build checks nd's kid count against its arity and adds the node.
func (p *treeParser) build(nd openNode, kids []*Node) (*Node, error) {
	if arity := p.b.Grammar().Arity(nd.op); len(kids) != arity {
		return nil, fmt.Errorf("tree: operator %s wants %d kids, got %d", nd.name, arity, len(kids))
	}
	return p.b.OpNode(nd.op, nd.val, nd.sym, kids...), nil
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.'
}

// CheckTopo verifies the children-before-parents invariant of a forest.
// Engines rely on it; tests call it after every builder and parser change.
func CheckTopo(f *Forest) error {
	for i, n := range f.Nodes {
		if n.Index != i {
			return fmt.Errorf("ir: node at position %d has index %d", i, n.Index)
		}
		for _, k := range n.Kids {
			if k.Index >= i {
				return fmt.Errorf("ir: node %d has kid %d out of topological order", i, k.Index)
			}
		}
	}
	// Every root, and every kid of a listed node, must itself be listed;
	// by induction so is every reachable node. No recursion: forests may
	// be arbitrarily deep.
	seen := make(map[*Node]bool, len(f.Nodes))
	for _, n := range f.Nodes {
		seen[n] = true
	}
	missing := func(n *Node) error {
		return fmt.Errorf("ir: reachable node (op %d) missing from Nodes", n.Op)
	}
	for _, r := range f.Roots {
		if !seen[r] {
			return missing(r)
		}
	}
	for _, n := range f.Nodes {
		for _, k := range n.Kids {
			if !seen[k] {
				return missing(k)
			}
		}
	}
	return nil
}

// Stats summarizes a forest for workload tables.
type Stats struct {
	Roots     int
	Nodes     int
	Shared    int // nodes with >1 parent (DAG sharing)
	MaxDepth  int
	LeafNodes int
}

// ComputeStats derives forest statistics.
func ComputeStats(f *Forest) Stats {
	s := Stats{Roots: len(f.Roots), Nodes: len(f.Nodes)}
	parents := make([]int, len(f.Nodes))
	for _, n := range f.Nodes {
		if len(n.Kids) == 0 {
			s.LeafNodes++
		}
		for _, k := range n.Kids {
			parents[k.Index]++
		}
	}
	for _, p := range parents {
		if p > 1 {
			s.Shared++
		}
	}
	depth := make([]int, len(f.Nodes))
	for i, n := range f.Nodes {
		d := 1
		for _, k := range n.Kids {
			if depth[k.Index]+1 > d {
				d = depth[k.Index] + 1
			}
		}
		depth[i] = d
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	return s
}

// String renders forest statistics compactly.
func (s Stats) String() string {
	return fmt.Sprintf("roots=%d nodes=%d shared=%d depth=%d leaves=%d",
		s.Roots, s.Nodes, s.Shared, s.MaxDepth, s.LeafNodes)
}
