package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
)

// TestSessionCoreTouchesNoIO pins the core/driver splits: the collector
// session core (session.go) and the agent stream core (stream.go) start
// no goroutine, send, receive or select on no channel, and name none of
// the packages that reach sockets, clocks or files; the agent core names
// no sync either, its driver holding the mutex. Whatever they need of
// those their drivers do, so the simulator can run both on a virtual
// clock in one goroutine.
func TestSessionCoreTouchesNoIO(t *testing.T) {
	for _, tc := range []struct {
		file   string
		banned []string
	}{
		{"session.go", []string{"time", "net", "os", "bufio"}},
		{"stream.go", []string{"time", "net", "os", "bufio", "sync"}},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tc.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); slices.Contains(tc.banned, path) {
				t.Errorf("%v: the core imports %q", fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var what string
			switch n := n.(type) {
			case *ast.GoStmt:
				what = "go statement"
			case *ast.SendStmt:
				what = "channel send"
			case *ast.SelectStmt:
				what = "select"
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					what = "channel receive"
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && slices.Contains(tc.banned, id.Name) {
					what = "reference to " + id.Name + "." + n.Sel.Name
				}
			}
			if what != "" {
				t.Errorf("%v: %s in the core", fset.Position(n.Pos()), what)
			}
			return true
		})
	}
}

// TestSilentRelayInIrregularTree: a root names a relay it never heard
// from by the leaves its heard siblings leave between them, so an
// irregular tree's LeafBase numbering holds: one silent relay before,
// between or among heard ones gets exactly its span.
func TestSilentRelayInIrregularTree(t *testing.T) {
	for _, tc := range []struct {
		spans [][2]int // each relay's [LeafBase, fan-in); fan-in 0: silent
		want  []int
	}{
		{[][2]int{{0, 0}, {3, 2}}, []int{0, 1, 2}},
		{[][2]int{{0, 3}, {0, 0}, {5, 4}}, []int{3, 4}},
		{[][2]int{{0, 2}, {0, 0}, {0, 0}, {6, 1}}, []int{2, 3, 4, 5}},
	} {
		fx := &partialFx{}
		s := newSession(fx, nil, len(tc.spans), 7)
		s.hold = true
		for id, sp := range tc.spans {
			if sp[1] == 0 {
				continue
			}
			if err := s.hello(hello{agentID: id, spanLo: sp[0], spanLen: sp[1], digest: 7}); err != nil {
				t.Fatal(err)
			}
			if err := s.frame(id, s.ag[id].gen, queuedFrame{boundary: 900_000, spanLo: sp[0], spanLen: sp[1]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.holdFired(900_000); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fx.partial, tc.want) {
			t.Errorf("spans %v: Partial %v, want %v", tc.spans, fx.partial, tc.want)
		}
	}
}

// partialFx is a root's effects that record the Partial of its one close.
type partialFx struct{ partial []int }

func (*partialFx) accept(int, int, int64)               {}
func (*partialFx) refuse(uint64, error)                 {}
func (*partialFx) refund(int)                           {}
func (*partialFx) recycle(int, *intervalDecoder)        {}
func (*partialFx) ack(int, int64)                       {}
func (*partialFx) byeOK(int)                            {}
func (*partialFx) drop(int, bool)                       {}
func (*partialFx) armHold(int64)                        {}
func (*partialFx) stopHold()                            {}
func (*partialFx) absorb(int, queuedFrame) error        { return nil }
func (fx *partialFx) emit(_ int64, partial []int) error { fx.partial = partial; return nil }
func (*partialFx) ship(int64, []int) error              { return nil }
func (*partialFx) checkpoint(checkpoint) error          { return nil }
