package transer

import (
	"fmt"

	"transer/internal/experiments"
	"transer/internal/ml"
	"transer/internal/ml/forest"
	"transer/internal/transfer"
)

// NamedClassifier pairs a classifier factory with a display name.
type NamedClassifier = ml.Named

// DefaultClassifier returns the default classifier factory (a random
// forest), the strongest single model on the synthetic benchmarks.
func DefaultClassifier() ClassifierFactory {
	return forest.Factory(forest.Config{Seed: 1})
}

// StandardClassifiers returns the four classifiers the paper averages
// its linkage quality results over (Section 5.1.1): a linear SVM, a
// random forest, a logistic regression, and a decision tree — the set
// the experiments use.
func StandardClassifiers(seed int64) []NamedClassifier {
	return experiments.StandardClassifiers(seed)
}

// Method is one transfer approach (TransER or a baseline).
type Method = transfer.Method

// Methods returns TransER plus the six baselines of the paper's
// Section 5.1.3, configured with the given seed.
func Methods(seed int64) []Method {
	return []Method{
		transfer.TransER{},
		transfer.Naive{},
		transfer.DTAL{Seed: seed},
		transfer.DR{Seed: seed},
		transfer.LocIT{Seed: seed},
		transfer.TCA{Seed: seed},
		transfer.Coral{},
	}
}

// MethodByName resolves a method display name ("TransER", "Naive",
// "DTAL*", "DR", "LocIT*", "TCA", "Coral") to its implementation.
func MethodByName(name string, seed int64) (Method, error) {
	for _, m := range Methods(seed) {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("transer: unknown method %q", name)
}

// TransERWithConfig returns the TransER method with a custom
// configuration, for parameter sweeps and ablations.
func TransERWithConfig(cfg Config) Method {
	return transfer.TransER{Config: cfg}
}

// MethodEvaluation is the outcome of running one method over a
// classifier set on one source→target task: per-classifier and
// aggregate quality, and Runtime, the cost of one classifier run as
// Table 3 charges it (prepare time plus mean fit time).
type MethodEvaluation = experiments.MethodEvaluation

// newTask converts a source/target Domain pair into the internal task
// representation consumed by transfer methods.
func newTask(source, target *Domain) *transfer.Task {
	return &transfer.Task{
		XS: source.X, YS: source.Y, XT: target.X,
		SourceA: source.A, SourceB: source.B,
		TargetA: target.A, TargetB: target.B,
		SourcePairs: source.Pairs, TargetPairs: target.Pairs,
	}
}

// RunMethod executes one transfer method with one classifier factory.
func RunMethod(m Method, source, target *Domain, factory ClassifierFactory) (*Result, error) {
	if !source.Labelled() {
		return nil, fmt.Errorf("transer: source domain %q has no labels", source.Name)
	}
	res, err := m.Run(newTask(source, target), factory)
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, Proba: res.Proba, Classifier: res.Classifier}, nil
}

// EvaluateMethod runs a method once per classifier (nil means
// StandardClassifiers(1)) and aggregates linkage quality against the
// target's ground truth — exactly the paper's Table 2 protocol. The
// method's classifier-independent work is prepared once and shared by
// the classifier runs. The target must be labelled.
func EvaluateMethod(m Method, source, target *Domain, classifiers []NamedClassifier) (MethodEvaluation, error) {
	if target.Y == nil {
		return MethodEvaluation{Method: m.Name()}, fmt.Errorf("transer: target domain %q has no ground truth to evaluate against", target.Name)
	}
	if len(classifiers) == 0 {
		classifiers = StandardClassifiers(1)
	}
	ev, err := experiments.EvaluateMethod(m, newTask(source, target), target.Y, classifiers, nil)
	if err != nil {
		return ev, fmt.Errorf("transer: %w", err)
	}
	return ev, nil
}
