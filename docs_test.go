package ftlq

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameExistingCommands: every cmd/<name> the living docs tell a
// reader to run must be a command of this module. CHANGES.md and ROADMAP.md
// are history and may name commands that have since been retired.
func TestDocsNameExistingCommands(t *testing.T) {
	cmdRef := regexp.MustCompile(`cmd/([A-Za-z0-9_-]+)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllSubmatch(text, -1) {
			name := string(m[1])
			if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, name)
			}
		}
	}
}
