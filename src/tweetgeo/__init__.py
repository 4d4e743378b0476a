"""tweetgeo: country/city geolocation of short messages from a single record.

A numpy-only implementation of a multi-field convolutional text classifier
fused with categorical features, a stacked multinomial naive-Bayes baseline
(with information-gain-ratio feature selection), geodesic evaluation metrics,
and a deterministic synthetic-corpus generator for desk-scale experiments.
"""

from .bayes import (MnbModel, StackModel, count_matrix, fit_mnb, fit_stacking, igr_scores,
                    posterior_mnb, posterior_stacking, predict_mnb, select_top_percent)
from .cnn import (VOCAB_FIELDS, CnnConfig, CnnModel, FeatureBatch, backward, encode_columns,
                  encode_features, forward, init_model, load_pretrained_embeddings, predict_proba)
from .columns import TokenColumns, token_columns
from .encode import CategoryMaps, build_category_maps, categorical_tokens, time_slot
from .errors import BundleError, DataError
from .geo import (City, CityTable, haversine_km, load_city_table, nearest_city,
                  save_city_table)
from .ingest import (Record, SplitSpec, StatsReport, dataset_stats,
                     dedup_user_city, parse_record, read_jsonl,
                     resolve_coordinates, split_by_user, write_jsonl)
from .labels import LabelTable, city_labels, country_labels
from .metrics import (Predictions, acc_at_161, acc_top5, accuracy, calibration_bins,
                      expected_calibration_error, median_error_km, per_class_pr, rank,
                      ranked_top5)
from .nncore import adam_step, dropout, softmax
from .synth import SynthSpec, generate, write_corpus
from .textproc import Vocabulary, build_vocab, load_vocab, save_vocab, tokenize
from .train import (CnnBundle, StackBundle, TrainConfig, TrainResult,
                    load_bundle, load_model, load_stack_model, save_model,
                    save_stack_model, train)

__version__ = "0.1.0"
