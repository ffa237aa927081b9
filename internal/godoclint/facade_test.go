package godoclint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers fails for every exported name of the
// facade (frontier.go) that nothing needs. A name is needed when
//
//	(a) a Go file other than frontier.go references it (examples,
//	    commands, root tests and benchmarks included);
//	(b) a needed name's signature, type, exported struct field,
//	    interface method or exported method mentions it, so every kept
//	    API stays nameable;
//	(c) it is a constant of a needed type or in one declaration group
//	    with a needed constant, or an error that a method of a needed
//	    type returns, so each enum set stays complete.
func TestFacadeNamesHaveCallers(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	facade := filepath.Join(root, "frontier.go")
	f, err := parser.ParseFile(fset, facade, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check("frontier", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Scope()

	// aliasOf maps each internal type the facade re-exports to its
	// facade name.
	aliasOf := map[*types.TypeName]string{}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				aliasOf[named.Origin().Obj()] = name
			}
		}
	}

	used, err := facadeReferences(root, facade)
	if err != nil {
		t.Fatal(err)
	}
	needed := map[string]bool{}
	var queue []string
	need := func(name string) {
		if obj := scope.Lookup(name); obj != nil && obj.Exported() && !needed[name] {
			needed[name] = true
			queue = append(queue, name)
		}
	}
	for name := range used {
		need(name)
	}
	byA := len(needed)

	// Rule (b): close the needed set over every type a needed name
	// mentions.
	seen := map[types.Type]bool{}
	var mention func(types.Type)
	mention = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if name, ok := aliasOf[t.Origin().Obj()]; ok {
				need(name)
			}
		case *types.Pointer:
			mention(t.Elem())
		case *types.Slice:
			mention(t.Elem())
		case *types.Array:
			mention(t.Elem())
		case *types.Chan:
			mention(t.Elem())
		case *types.Map:
			mention(t.Key())
			mention(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					mention(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					mention(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if t.Method(i).Exported() {
					mention(t.Method(i).Type())
				}
			}
		}
	}
	for len(queue) > 0 {
		obj := scope.Lookup(queue[0])
		queue = queue[1:]
		typ := types.Unalias(obj.Type())
		if _, ok := obj.(*types.TypeName); !ok {
			mention(typ)
			continue
		}
		mention(typ.Underlying())
		if _, ok := typ.Underlying().(*types.Interface); ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(typ))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				mention(m.Type())
			}
		}
	}

	byB := len(needed) - byA

	// Rule (c): keep a constant whose type is needed or that shares a
	// declaration group with a needed constant, and an error that a
	// method of a needed type returns.
	errType := types.Universe.Lookup("error").Type()
	neededType := func(tn *types.TypeName) bool { return needed[aliasOf[tn]] }
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		var group []string
		groupNeeded := false
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				switch gd.Tok {
				case token.CONST:
					if named, ok := types.Unalias(scope.Lookup(id.Name).Type()).(*types.Named); ok && neededType(named.Origin().Obj()) {
						needed[id.Name] = true
					}
					group = append(group, id.Name)
					groupNeeded = groupNeeded || needed[id.Name]
				case token.VAR:
					if i >= len(vs.Values) {
						continue
					}
					sel, ok := vs.Values[i].(*ast.SelectorExpr)
					if !ok {
						continue
					}
					v, ok := info.Uses[sel.Sel].(*types.Var)
					if !ok || !types.Identical(v.Type(), errType) {
						continue
					}
					returned, err := methodsName(root, v, neededType)
					if err != nil {
						t.Fatal(err)
					}
					needed[id.Name] = needed[id.Name] || returned
				}
			}
		}
		for _, name := range group {
			needed[name] = needed[name] || groupNeeded
		}
	}

	var unused []string
	for _, name := range scope.Names() {
		if token.IsExported(name) && !needed[name] {
			unused = append(unused, name)
		}
	}
	for _, name := range unused {
		t.Errorf("frontier.%s: no caller outside frontier.go, and no kept API needs it", name)
	}
	t.Logf("%d facade names: %d kept by rule (a), %d by (b), %d by (c); %d unused",
		len(needed)+len(unused), byA, byB, len(needed)-byA-byB, len(unused))
}

// facadeReferences returns every facade name referenced by a Go file
// under root other than the facade file itself: selectors on an import
// of "frontier", and any identifier in a root file of package frontier.
func facadeReferences(root, facade string) (map[string]bool, error) {
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == facade {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "frontier" && filepath.Dir(path) == root {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
			return nil
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "frontier" {
				continue
			}
			local := "frontier"
			if imp.Name != nil {
				local = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return used, nil
}

// methodsName reports whether the body of any method declared in v's
// package on a type that keep accepts names v.
func methodsName(root string, v *types.Var, keep func(*types.TypeName) bool) (bool, error) {
	dir := filepath.Join(root, strings.TrimPrefix(v.Pkg().Path(), "frontier/"))
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return false, err
	}
	found := false
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				recv, _ := receiverType(fd)
				if tn, ok := v.Pkg().Scope().Lookup(recv).(*types.TypeName); !ok || !keep(tn) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == v.Name() {
						found = true
					}
					return !found
				})
			}
		}
	}
	return found, nil
}
