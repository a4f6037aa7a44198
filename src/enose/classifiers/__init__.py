"""Classifiers: CART tree, random forest, one-vs-rest kernel SVM."""
