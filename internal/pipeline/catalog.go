package pipeline

import (
	"transer/internal/datagen"
)

// DatasetByKey looks a built-in dataset up by its key.
func DatasetByKey(key string) (datagen.Builtin, bool) {
	return datagen.BuiltinByKey(key)
}

// MustDataset is DatasetByKey for keys that are compile-time constants
// in the experiment harness; unknown keys are programmer errors.
func MustDataset(key string) datagen.Builtin {
	d, ok := DatasetByKey(key)
	if !ok {
		panic("pipeline: unknown built-in dataset " + key)
	}
	return d
}

// TaskRef identifies one source→target transfer task by dataset keys.
type TaskRef struct {
	Source, Target string
}

// Name formats the task the way experiment tables caption it.
func (t TaskRef) Name() string { return t.Source + " -> " + t.Target }

// PaperTaskRefs returns the eight source→target tasks of the paper's
// Table 2 as dataset key pairs.
func PaperTaskRefs() []TaskRef {
	return refsOf(datagen.PaperTaskKeys())
}

// RepresentativeTaskRefs returns the three tasks used for the
// sensitivity and ablation experiments (paper Sections 5.2.3-5.4).
func RepresentativeTaskRefs() []TaskRef {
	return refsOf(datagen.RepresentativeTaskKeys())
}

func refsOf(keys [][2]string) []TaskRef {
	out := make([]TaskRef, len(keys))
	for i, k := range keys {
		out[i] = TaskRef{Source: k[0], Target: k[1]}
	}
	return out
}
