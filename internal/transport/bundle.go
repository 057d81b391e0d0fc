package transport

import "fmt"

// ArtifactMismatchError reports two shard servers of one deployment
// advertising different artifact content hashes on /params: their trees
// come from different saved publications, and composing them would
// serve a database no single owner build produced. front.DialFront
// returns it so operators see which two backends disagree by name.
type ArtifactMismatchError struct {
	URL, Hash           string // the backend that broke the match
	OtherURL, OtherHash string // the first artifact-serving backend dialed
}

func (e *ArtifactMismatchError) Error() string {
	return fmt.Sprintf("transport: backend %s serves artifact %.12s…, %s serves %.12s…; shard servers must load shards of one saved set",
		e.URL, e.Hash, e.OtherURL, e.OtherHash)
}

// CheckSameBundle verifies a server's advertised bundle describes the
// same logical database as an anchor server's: same backend name, same
// verifier key, same template — one database, one owner.
// front.DialFront runs it across every replica of every shard; the
// error names both URLs.
func CheckSameBundle(url string, p Params, anchorURL string, anchor Params) error {
	if p.Backend != anchor.Backend {
		return fmt.Errorf("transport: backend %s serves %q, %s serves %q; one logical database required",
			url, p.Backend, anchorURL, anchor.Backend)
	}
	if p.Verifier != anchor.Verifier {
		return fmt.Errorf("transport: backend %s publishes a different verifier key than %s; all shards must share one owner key (vqserve -keyseed)",
			url, anchorURL)
	}
	if !sameTemplate(p.Template, anchor.Template) {
		return fmt.Errorf("transport: backend %s publishes a different template than %s", url, anchorURL)
	}
	return nil
}

// sameTemplate compares two advertised templates field for field.
func sameTemplate(a, b TplJSON) bool {
	if a.Name != b.Name || a.BiasAttr != b.BiasAttr || len(a.CoefAttrs) != len(b.CoefAttrs) {
		return false
	}
	for i := range a.CoefAttrs {
		if a.CoefAttrs[i] != b.CoefAttrs[i] {
			return false
		}
	}
	return true
}
