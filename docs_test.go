package allforone

// The documents are checked against the tree: DESIGN.md, EXPERIMENTS.md,
// doc.go and every package comment may name only code, paths, metrics and
// DESIGN.md sections that exist (DESIGN.md §9). Four rules:
//
//   - code names: a backticked dotted token (`pkg.Name`, `Type.Member`,
//     `pkg.Type.Member`, optionally called) must resolve. Its qualifier is a
//     module package, a module type, or a standard-library package the module
//     imports, and each further part a declaration, method or field (promoted
//     ones included) of what precedes it; a token naming an existing file
//     (`go.mod`) resolves too. In Go comments, where code is not backticked,
//     a bare dotted token is held to the rule when its qualifier is a
//     package or type it knows.
//   - paths: a backticked path whose first element is a top-level directory
//     of the repository (bare, in Go comments) must exist, unless it lies in
//     a directory .gitignore lists, where runs write their output.
//   - metrics: a metric-shaped token (`pkg.snake_case`) must be a name the
//     benchmark of record still emits — a string literal of bench/*.go, or
//     one of its "prefix." literals joined to another literal.
//   - sections: every `DESIGN.md §N` cited from a Go comment, DESIGN.md
//     (where a bare §N suffices), EXPERIMENTS.md or doc.go must name a
//     heading of DESIGN.md.
//
// ROADMAP.md (planned names), CHANGES.md (history) and bench/ (its own
// module) are out of scope.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// declIndex is what one package declares, as far as a document can name it.
type declIndex struct {
	decls   map[string]bool              // top-level names
	members map[string]map[string]string // type → method or field → the field's type ("" for a method)
	embeds  map[string][]string          // type → embedded types, and an alias's or defined type's target
}

func newDeclIndex() *declIndex {
	return &declIndex{decls: map[string]bool{}, members: map[string]map[string]string{}, embeds: map[string][]string{}}
}

func (ix *declIndex) member(typ, name, fieldType string) {
	if ix.members[typ] == nil {
		ix.members[typ] = map[string]string{}
	}
	ix.members[typ][name] = fieldType
}

// typeName renders a type expression as the named type it refers to —
// "T" or "pkg.T" — or "" when it is not one.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

// add indexes one parsed file.
func (ix *declIndex) add(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.decls[d.Name.Name] = true
			} else if len(d.Recv.List) == 1 {
				if recv := typeName(d.Recv.List[0].Type); recv != "" {
					ix.member(recv, d.Name.Name, "")
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.decls[n.Name] = true
					}
				case *ast.TypeSpec:
					ix.addType(s)
				}
			}
		}
	}
}

func (ix *declIndex) addType(s *ast.TypeSpec) {
	name := s.Name.Name
	ix.decls[name] = true
	if ix.members[name] == nil {
		ix.members[name] = map[string]string{}
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			ft := typeName(f.Type)
			if len(f.Names) == 0 { // embedded: its name is a field, its members promoted
				ix.member(name, ft[strings.LastIndex(ft, ".")+1:], ft)
				ix.embeds[name] = append(ix.embeds[name], ft)
			}
			for _, n := range f.Names {
				ix.member(name, n.Name, ft)
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				ix.member(name, n.Name, "")
			}
			if len(m.Names) == 0 {
				ix.embeds[name] = append(ix.embeds[name], typeName(m.Type))
			}
		}
	default: // an alias or a defined type: the target's members, as far as they carry over
		if target := typeName(s.Type); target != "" {
			ix.embeds[name] = append(ix.embeds[name], target)
		}
	}
}

// docIndex resolves the names a document may use.
type docIndex struct {
	root     string
	pkgs     map[string][]*declIndex // package name → the module's packages of that name
	std      map[string][]string     // package name → standard-library import paths the module uses
	stdIx    map[string]*declIndex   // import path → its index, parsed on first use
	types    map[string][]*declIndex // type name → the module packages declaring it
	files    map[string]bool         // base name of every file in the module
	topDirs  map[string]bool         // top-level directories of the repository
	outDirs  []string                // directories .gitignore lists ("bench/out/")
	metrics  map[string]bool         // string literals of bench/*.go
	prefixes []string                // bench/*.go literals ending in "."
	sections map[string]bool         // DESIGN.md heading numbers
	comments []goComment             // every comment of the module's Go files
}

// goComment is one comment group of a module Go file.
type goComment struct {
	file, text string
	line       int
	pkgDoc     bool // the package comment
}

func buildDocIndex(t *testing.T, root string) *docIndex {
	t.Helper()
	ix := &docIndex{
		root: root, pkgs: map[string][]*declIndex{}, std: map[string][]string{}, stdIx: map[string]*declIndex{},
		types: map[string][]*declIndex{}, files: map[string]bool{}, topDirs: map[string]bool{},
		metrics: map[string]bool{}, sections: map[string]bool{},
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			ix.topDirs[e.Name()] = true
		}
	}
	if ignore, err := os.ReadFile(filepath.Join(root, ".gitignore")); err == nil {
		for _, line := range strings.Split(string(ignore), "\n") {
			if line = strings.TrimPrefix(strings.TrimSpace(line), "/"); strings.HasSuffix(line, "/") && !strings.ContainsAny(line, "*?[") {
				ix.outDirs = append(ix.outDirs, line)
			}
		}
	}
	fset := token.NewFileSet()
	byPkg := map[string]*declIndex{} // "dir name" → the package
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ix.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := filepath.Dir(path) + " " + f.Name.Name
		pix := byPkg[key]
		if pix == nil {
			pix = newDeclIndex()
			byPkg[key] = pix
			ix.pkgs[f.Name.Name] = append(ix.pkgs[f.Name.Name], pix)
		}
		pix.add(f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(p, "allforone") || strings.Contains(strings.SplitN(p, "/", 2)[0], ".") {
				continue
			}
			name := filepath.Base(p)
			if regexp.MustCompile(`^v\d+$`).MatchString(name) {
				name = filepath.Base(filepath.Dir(p))
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if !slices.Contains(ix.std[name], p) {
				ix.std[name] = append(ix.std[name], p)
			}
		}
		for _, cg := range f.Comments {
			ix.comments = append(ix.comments, goComment{
				file: rel, text: cg.Text(), line: fset.Position(cg.Pos()).Line,
				pkgDoc: cg == f.Doc && !strings.HasSuffix(path, "_test.go"),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgs := range ix.pkgs {
		for _, p := range pkgs {
			for typ := range p.members {
				ix.types[typ] = append(ix.types[typ], p)
			}
		}
	}
	benchFiles, _ := filepath.Glob(filepath.Join(root, "bench", "*.go"))
	for _, path := range benchFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					ix.metrics[s] = true
					if strings.HasSuffix(s, ".") {
						ix.prefixes = append(ix.prefixes, s)
					}
				}
			}
			return true
		})
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range headingRE.FindAllStringSubmatch(string(design), -1) {
		ix.sections[m[1]] = true
	}
	return ix
}

var (
	headingRE  = regexp.MustCompile(`(?m)^#+ §(\d+(?:\.\d+)*)\b`)
	codeSpanRE = regexp.MustCompile("`([^`\n]+)`")
	dottedRE   = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?$`)
	metricRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$`)
	pathRE     = regexp.MustCompile(`^(?:allforone/)?([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.*-]+)+)/?(?::\d+(?:[–-]\d+)?)?$`)
	// In Go comments: a bare dotted token, and a bare path.
	bareDottedRE = regexp.MustCompile(`(?:^|[^\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
	barePathRE   = regexp.MustCompile(`(?:^|[\s(])((?:[A-Za-z0-9_-]+/)+[A-Za-z0-9_.-]*[A-Za-z0-9_])`)
	// A citation: DESIGN.md §N, and the further §M of a list ("§7, §12").
	citeRE    = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\d+(?:\.\d+)*(?:(?:\s*,\s*|\s+and\s+|\s*[–-]\s*)§\d+(?:\.\d+)*)*`)
	sectionRE = regexp.MustCompile(`§(\d+(?:\.\d+)*)`)
)

// stdIndex parses a standard-library package the module imports.
func (ix *docIndex) stdIndex(path string) *declIndex {
	if p, ok := ix.stdIx[path]; ok {
		return p
	}
	p := newDeclIndex()
	ix.stdIx[path] = p
	bp, err := build.Default.Import(path, ix.root, 0)
	if err != nil {
		return p
	}
	fset := token.NewFileSet()
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err == nil {
			p.add(f)
		}
	}
	return p
}

// packages returns the packages a qualifier names, module ones first.
func (ix *docIndex) packages(name string) []*declIndex {
	pkgs := slices.Clone(ix.pkgs[name])
	for _, path := range ix.std[name] {
		pkgs = append(pkgs, ix.stdIndex(path))
	}
	return pkgs
}

// hasMember reports whether typ (declared in p) has name as a method or
// field, its own or promoted, and returns the field's type.
func (ix *docIndex) hasMember(p *declIndex, typ, name string, depth int) (string, bool) {
	if depth > 8 {
		return "", false
	}
	if ft, ok := p.members[typ][name]; ok {
		return ft, true
	}
	for _, e := range p.embeds[typ] {
		for _, q := range ix.owners(p, e) {
			if ft, ok := ix.hasMember(q.pkg, q.typ, name, depth+1); ok {
				return ft, true
			}
		}
	}
	return "", false
}

type ownedType struct {
	pkg *declIndex
	typ string
}

// owners resolves a type reference written in p ("T" or "pkg.T").
func (ix *docIndex) owners(p *declIndex, ref string) []ownedType {
	if q, typ, ok := strings.Cut(ref, "."); ok {
		var out []ownedType
		for _, pkg := range ix.packages(q) {
			out = append(out, ownedType{pkg, typ})
		}
		return out
	}
	return []ownedType{{p, ref}}
}

// resolveMembers walks parts as a chain of members from typ in p.
func (ix *docIndex) resolveMembers(p *declIndex, typ string, parts []string) bool {
	ft, ok := ix.hasMember(p, typ, parts[0], 0)
	if !ok {
		return false
	}
	if len(parts) == 1 {
		return true
	}
	for _, o := range ix.owners(p, ft) {
		if ft != "" && ix.resolveMembers(o.pkg, o.typ, parts[1:]) {
			return true
		}
	}
	return false
}

// knownQualifier reports whether name is a package or type the index knows.
func (ix *docIndex) knownQualifier(name string) bool {
	return len(ix.pkgs[name]) > 0 || len(ix.std[name]) > 0 || len(ix.types[name]) > 0
}

// resolveCode applies the code-name rule to one dotted token.
func (ix *docIndex) resolveCode(tok string) error {
	parts := strings.Split(tok, ".")
	q, rest := parts[0], parts[1:]
	if !ix.knownQualifier(q) {
		return fmt.Errorf("`%s`: %s is no package or type of the module, and no standard-library package it imports", tok, q)
	}
	for _, p := range ix.packages(q) {
		if !p.decls[rest[0]] {
			continue
		}
		if len(rest) == 1 || ix.resolveMembers(p, rest[0], rest[1:]) {
			return nil
		}
	}
	for _, p := range ix.types[q] {
		if ix.resolveMembers(p, q, rest) {
			return nil
		}
	}
	return fmt.Errorf("`%s` does not resolve", tok)
}

// resolveMetric applies the metric rule.
func (ix *docIndex) resolveMetric(tok string) error {
	if ix.metrics[tok] {
		return nil
	}
	for _, pre := range ix.prefixes {
		if rest, ok := strings.CutPrefix(tok, pre); ok && ix.metrics[rest] {
			return nil
		}
	}
	return fmt.Errorf("`%s`: no such metric in bench/*.go", tok)
}

// resolvePath applies the path rule; ok is false when tok is no repository
// path at all.
func (ix *docIndex) resolvePath(tok string) (err error, ok bool) {
	m := pathRE.FindStringSubmatch(tok)
	if m == nil || !ix.topDirs[strings.Split(m[1], "/")[0]] {
		return nil, false
	}
	for _, dir := range ix.outDirs {
		if strings.HasPrefix(m[1]+"/", dir) {
			return nil, true
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(ix.root, m[1])); len(matches) == 0 {
		return fmt.Errorf("`%s`: no such path", tok), true
	}
	return nil, true
}

// checkToken applies the path, metric and code-name rules to one token. A
// backticked token is strict; a bare one, in a Go comment, is held to the
// code-name rule only when its qualifier is a package or type the index
// knows.
func (ix *docIndex) checkToken(tok string, strict bool) error {
	tok = strings.TrimSpace(tok)
	if ix.files[tok] {
		return nil
	}
	if err, ok := ix.resolvePath(tok); ok {
		return err
	}
	if metricRE.MatchString(tok) && strings.Contains(tok, "_") {
		return ix.resolveMetric(tok)
	}
	m := dottedRE.FindStringSubmatch(tok)
	if m == nil || !strict && !ix.knownQualifier(strings.Split(m[1], ".")[0]) {
		return nil
	}
	return ix.resolveCode(m[1])
}

// checkSections applies the section rule to text; bare says every §N in it
// is a citation (a line of DESIGN.md).
func (ix *docIndex) checkSections(text string, bare bool) []error {
	cites := citeRE.FindAllString(text, -1)
	if bare {
		cites = []string{text}
	}
	var errs []error
	for _, c := range cites {
		for _, m := range sectionRE.FindAllStringSubmatch(c, -1) {
			if !ix.sections[m[1]] {
				errs = append(errs, fmt.Errorf("§%s, cited in %q: no such section", m[1], strings.Join(strings.Fields(c), " ")))
			}
		}
	}
	return errs
}

// checkMarkdown applies every rule to a Markdown document; fenced code
// blocks are skipped.
func (ix *docIndex) checkMarkdown(doc string, isDesign bool) []string {
	var problems []string
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		var errs []error
		for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
			if err := ix.checkToken(m[1], true); err != nil {
				errs = append(errs, err)
			}
		}
		if isDesign && !headingRE.MatchString(line) {
			errs = append(errs, ix.checkSections(line, true)...)
		}
		for _, err := range errs {
			problems = append(problems, fmt.Sprintf("%d: %v", i+1, err))
		}
	}
	if !isDesign { // a citation may break across lines
		for _, err := range ix.checkSections(doc, false) {
			problems = append(problems, err.Error())
		}
	}
	return problems
}

// checkComment applies the rules to a Go comment: sections everywhere; code
// names, paths and metrics in package comments, bare or backticked.
func (ix *docIndex) checkComment(c goComment) []string {
	var errs []error
	errs = append(errs, ix.checkSections(c.text, false)...)
	if c.pkgDoc {
		for _, line := range strings.Split(c.text, "\n") {
			for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				if err := ix.checkToken(m[1], true); err != nil {
					errs = append(errs, err)
				}
			}
			for _, re := range []*regexp.Regexp{barePathRE, bareDottedRE} {
				for _, m := range re.FindAllStringSubmatch(line, -1) {
					if err := ix.checkToken(m[1], false); err != nil {
						errs = append(errs, err)
					}
				}
			}
		}
	}
	var problems []string
	for _, err := range errs {
		problems = append(problems, fmt.Sprintf("%s:%d: %v", c.file, c.line, err))
	}
	return problems
}

// TestDocsResolve holds DESIGN.md, EXPERIMENTS.md and the module's Go
// comments to the four rules above.
func TestDocsResolve(t *testing.T) {
	t.Parallel()
	ix := buildDocIndex(t, ".")
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ix.checkMarkdown(string(doc), name == "DESIGN.md") {
			t.Errorf("%s:%s", name, p)
		}
	}
	for _, c := range ix.comments {
		for _, p := range ix.checkComment(c) {
			t.Error(p)
		}
	}
}

// TestDocsResolveFlagsPlantedNames plants one stale name per rule and
// demands that each is flagged, and that a live name of each kind is not.
func TestDocsResolveFlagsPlantedNames(t *testing.T) {
	t.Parallel()
	ix := buildDocIndex(t, ".")
	for _, c := range []struct {
		doc     string
		flagged bool
	}{
		{"a type that is gone: `delivery.Fire`", true},
		{"a method that is gone: `netsim.Network.Receive`", true},
		{"a function that is gone: `driver.Run`", true},
		{"a method of a module type that is gone: `Handle.Sleep`", true},
		{"a path that is gone: `internal/shmem`", true},
		{"a metric no longer emitted: `vclock.heap_sifts`", true},
		{"a section that does not exist: DESIGN.md §99", true},
		{"the entry: `driver.RunHandlers`", false},
		{"a method: `vclock.Scheduler.AtMessage`, called: `Handle.Now()`", false},
		{"a promoted field: `Outcome.Quiesced`, a field's field: `sim.Engine.Sched.ShardEvents`", false},
		{"a standard-library name: `sync.Pool`, `rand.PCG`", false},
		{"a path: `internal/netsim/expand.go`, with a line: `internal/protocol/check.go:1`", false},
		{"a run's output: `bench/out/no-such-report.json`", false},
		{"metrics: `vclock.max_bucket_depth`, `cpu_share.netsim`", false},
		{"a file: `go.mod`; a section: DESIGN.md §1", false},
	} {
		problems := ix.checkMarkdown(c.doc, false)
		if flagged := len(problems) > 0; flagged != c.flagged {
			t.Errorf("%q: flagged %v, want %v (%v)", c.doc, flagged, c.flagged, problems)
		}
	}
	if got := ix.checkComment(goComment{file: "x.go", text: "Package x runs on driver.Run and netsim.Network.Receive (DESIGN.md\n§99).\n", pkgDoc: true}); len(got) != 3 {
		t.Errorf("bare names in a package comment: %d problems, want 3: %v", len(got), got)
	}
}
