"""The README's library example runs as written."""

from pathlib import Path

import numpy as np

from tweetgeo.cnn import encode_features, predict_proba
from tweetgeo.geo import assign_cities
from tweetgeo.ingest import SplitSpec, dedup_user_city, split_by_user
from tweetgeo.synth import SynthSpec, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    example = blocks[0].split("```", 1)[0]
    records, city_table = generate(SynthSpec(n_cities=4, n_countries=2, n_users=300, seed=5))
    assign_cities(records, city_table)
    train_records, dev_records, test_records = split_by_user(
        dedup_user_city(records, seed=5), SplitSpec(0.2, 40, seed=5))
    names = {"train_records": train_records, "dev_records": dev_records,
             "test_records": test_records, "city_table": city_table}
    exec(compile(example, str(README), "exec"), names)
    printed = [float(x) for x in capsys.readouterr().out.split()]
    assert len(printed) == 2 and all(0.0 <= x <= 1.0 for x in printed)
    # `train` left the best epoch's parameters in the caller's model
    dev = encode_features(dev_records, names["vocab"], names["maps"], names["cfg"])
    hits = np.argmax(predict_proba(names["model"], dev), axis=1) == \
        names["labels"].label_array(dev_records)
    assert float(np.mean(hits)) == names["result"].best_dev_accuracy
