package hdc

import "fmt"

// Train builds a model by bundling pre-encoded hypervectors into their class
// vectors (paper Eq. 3). encoded[i] must have length dim; labels[i] must be
// in [0, numClasses).
func Train(encoded [][]float64, labels []int, numClasses, dim int) (*Model, error) {
	if len(encoded) != len(labels) {
		return nil, fmt.Errorf("hdc: Train got %d encodings but %d labels", len(encoded), len(labels))
	}
	m := NewModel(numClasses, dim)
	for i, h := range encoded {
		l := labels[i]
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("hdc: Train label %d out of range [0,%d)", l, numClasses)
		}
		if len(h) != dim {
			return nil, fmt.Errorf("hdc: Train encoding %d has dim %d, want %d", i, len(h), dim)
		}
		m.Add(l, h)
	}
	return m, nil
}

// RetrainEpoch performs one pass of the paper's Eq. 5 update over the
// training set: every mispredicted query is added to its true class and
// subtracted from the predicted class. It returns the number of updates
// (mispredictions) made during the pass.
func RetrainEpoch(m *Model, encoded [][]float64, labels []int) int {
	updates := 0
	for i, h := range encoded {
		want := labels[i]
		got := m.Predict(h)
		if got != want {
			m.Add(want, h)
			m.Sub(got, h)
			updates++
		}
	}
	return updates
}

// Retrain runs up to `epochs` passes of RetrainEpoch, evaluating accuracy on
// (evalEncoded, evalLabels) after each pass. It returns the per-epoch
// accuracies (Fig. 4's curves) and stops early if an epoch makes zero
// updates, since further passes cannot change the model.
func Retrain(m *Model, encoded [][]float64, labels []int, evalEncoded [][]float64, evalLabels []int, epochs int) []float64 {
	accs := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		updates := RetrainEpoch(m, encoded, labels)
		accs = append(accs, Evaluate(m, evalEncoded, evalLabels))
		if updates == 0 {
			break
		}
	}
	return accs
}

// Evaluate returns the fraction of encoded queries whose prediction matches
// the label. An empty evaluation set scores 0.
func Evaluate(m *Model, encoded [][]float64, labels []int) float64 {
	if len(encoded) == 0 {
		return 0
	}
	correct := 0
	for i, h := range encoded {
		if m.Predict(h) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(encoded))
}
